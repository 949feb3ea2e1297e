(* Property-based synthesis oracle (FTOS-Verify-style independent
   check): for seeded workload specs across the paper's evaluation
   ranges (10-40 processes, 2-4 nodes, k = 1-3), run the complete
   synthesis flow — policy assignment, mapping, conditional scheduling —
   and replay every produced schedule table through the fault-injection
   simulator. A schedulable result whose tables violate any
   distributed-execution invariant in any fault scenario is a synthesis
   bug; the failure message carries the spec so the instance reproduces
   from its seed. *)

module Synthesis = Ftes_core.Synthesis
module Gen = Ftes_workload.Gen
module Tabu = Ftes_optim.Tabu

(* Small search budget: the oracle exercises the whole flow, not the
   search quality. *)
let quick_tabu = { Tabu.default_options with iterations = 15; sample = 6 }

type spec = { seed : int; processes : int; nodes : int; k : int }

(* 25 deterministic specs. Process counts shrink as k grows so the
   exhaustive fault-scenario replay (exponential in the number of
   conditional vertices) stays tractable; across the list the paper's
   ranges are all covered. *)
let specs =
  List.init 25 (fun i ->
      let k = 1 + (i mod 3) in
      let processes =
        match k with
        | 1 -> 10 + (i * 5 mod 31)
        | 2 -> 10 + (i * 3 mod 16)
        | _ -> 10 + (i mod 5)
      in
      { seed = 4200 + (i * 97); processes; nodes = 2 + (i / 3 mod 3); k })

let describe s =
  Printf.sprintf "seed=%d processes=%d nodes=%d k=%d" s.seed s.processes
    s.nodes s.k

let synthesize_one s =
  let spec =
    {
      Gen.default with
      processes = s.processes;
      nodes = s.nodes;
      seed = s.seed;
      (* A third of the specs exercise the transparency machinery. *)
      frozen_msg_prob = (if s.seed mod 3 = 0 then 0.15 else 0.);
    }
  in
  let app, arch, wcet = Gen.instance spec in
  let options = { Synthesis.default_options with tabu = quick_tabu } in
  Synthesis.synthesize ~options ~app ~arch ~wcet ~k:s.k ()

let test_oracle () =
  let with_tables = ref 0 in
  List.iter
    (fun s ->
      let result = synthesize_one s in
      match Synthesis.validate result with
      | Error _ ->
          (* FT-CPG or track budget exceeded: nothing to replay. The
             estimate-only path is still a valid synthesis outcome. *)
          ()
      | Ok violations ->
          incr with_tables;
          if not (Synthesis.schedulable result) then
            Alcotest.failf
              "oracle spec %s: tables produced but not schedulable \
               (loose-deadline generator)"
              (describe s);
          if violations <> [] then
            Alcotest.failf
              "oracle spec %s: %d violation(s), first: %s" (describe s)
              (List.length violations)
              (Ftes_sim.Violation.to_string (List.hd violations)))
    specs;
  (* The oracle is only meaningful if a healthy share of the specs
     actually reached conditional scheduling. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 10 of 25 specs produced tables (%d did)"
       !with_tables)
    true (!with_tables >= 10)

let () =
  Alcotest.run "property"
    [
      ( "synthesis-oracle",
        [ Alcotest.test_case "25 seeded specs validate" `Slow test_oracle ] );
    ];
  Ftes_util.Par.shutdown ()
