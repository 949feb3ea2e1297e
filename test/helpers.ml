(* Shared helpers for the test suites. *)

module Problem = Ftes_ftcpg.Problem
module Policy = Ftes_app.Policy

let approx ?(eps = 1e-6) () = Alcotest.float eps

let check_float ?eps msg expected actual =
  Alcotest.check (approx ?eps ()) msg expected actual

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* The paper's Fig. 5 instance (4 processes, k = 2, frozen P3/m2/m3). *)
let fig5_problem () =
  let app = Ftes_app.App.fig5 () in
  let arch, wcet = Ftes_arch.Examples.fig5 () in
  let policies = Problem.default_policies ~app ~k:2 in
  let mapping = Problem.fastest_mapping ~app ~wcet ~policies in
  Problem.make ~app ~arch ~wcet ~k:2 ~policies ~mapping

let fig3_problem ~k =
  let app = Ftes_app.App.fig3 () in
  let arch, wcet = Ftes_arch.Examples.fig3 () in
  let policies = Problem.default_policies ~app ~k in
  let mapping = Problem.fastest_mapping ~app ~wcet ~policies in
  Problem.make ~app ~arch ~wcet ~k ~policies ~mapping

(* A seeded random instance with mixed fault-tolerance policies, as used
   by the fuzz-style integration tests. [tdma_slot] sets the TDMA slot
   length (the generator's messages are 2-8 units long, so a slot below
   8 makes some of them span several rounds); [slot_order] replaces the
   identity TDMA slot order with the given permutation of the nodes.
   Both leave a single bus alone. *)
let random_problem ?(frozen = true) ?(mixed_policies = true)
    ?(bus = Ftes_workload.Gen.default.bus)
    ?(tdma_slot = Ftes_workload.Gen.default.tdma_slot) ?slot_order
    ~processes ~nodes ~k ~seed () =
  let spec =
    {
      Ftes_workload.Gen.default with
      processes;
      nodes;
      seed;
      bus;
      tdma_slot;
      frozen_msg_prob = (if frozen then 0.25 else 0.);
      frozen_proc_prob = (if frozen then 0.2 else 0.);
    }
  in
  let p = Ftes_workload.Gen.problem ~k spec in
  let p =
    match (slot_order, bus) with
    | Some slot_order, Ftes_workload.Gen.Tdma ->
        let bus =
          Ftes_arch.Bus.tdma ~slot_order ~slot_length:tdma_slot ~bandwidth:1.
            nodes
        in
        Problem.make ~app:p.Problem.app
          ~arch:(Ftes_arch.Arch.make ~node_count:nodes ~bus ())
          ~wcet:p.Problem.wcet ~k ~policies:p.Problem.policies
          ~mapping:p.Problem.mapping
    | _ -> p
  in
  if not mixed_policies then p
  else begin
    let n = Ftes_app.Graph.process_count (Problem.graph p) in
    let policies =
      Array.init n (fun i ->
          match (i + seed) mod 5 with
          | 1 -> Policy.replication ~k
          | 2 when k >= 2 ->
              Policy.combined ~replicas:1
                ~recoveries_per_copy:[ k - 1; 0 ]
          | 3 -> Policy.checkpointing ~recoveries:k ~checkpoints:3
          | _ -> Policy.re_execution ~recoveries:k)
    in
    let mapping =
      Problem.fastest_mapping ~app:p.Problem.app ~wcet:p.Problem.wcet ~policies
    in
    Problem.with_policies p policies mapping
  end

(* A fully transparent (every process and message frozen) generated
   instance — the regime the static-table compiler and the symbolic
   validation backend target. *)
let transparent_problem ?(processes = 10) ?(nodes = 2) ~k ~seed () =
  let spec =
    {
      Ftes_workload.Gen.default with
      processes;
      nodes;
      seed;
      frozen_msg_prob = 1.0;
      frozen_proc_prob = 1.0;
    }
  in
  Ftes_workload.Gen.problem ~k spec

(* [ftes generate -p P -n 2 -k 9 --seed 1]: at P = 30 the FT-CPG
   exceeds its vertex cap; at P = 8 it expands, and the scenario tree
   exceeds the conditional scheduler's track cap. *)
let over_limit_problem ~processes =
  Ftes_workload.Gen.problem ~k:9
    { Ftes_workload.Gen.default with processes; nodes = 2; seed = 1 }

(* Random application graph for structural qcheck properties. *)
let arbitrary_graph =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 10_000) (int_range 1 15))

let graph_of (seed, n) =
  let spec =
    { Ftes_workload.Gen.default with processes = n; nodes = 2; seed }
  in
  let app, _, _ = Ftes_workload.Gen.instance spec in
  app.Ftes_app.App.graph
