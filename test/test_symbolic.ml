(* Equivalence tests for the symbolic scenario-family backend.

   [Symbolic.check] replays cubes of condition vectors through the same
   compiled table form the packed explicit validator uses. These tests
   pin its contract against the explicit oracles: the clean/not-clean
   verdict is identical to [Sim_oracle.validate] on every instance,
   every reported violation is an explicitly confirmed witness (its
   concretized scenario replays to the same violation under the
   reference [Sim_oracle.run]),
   and the result is invariant under the [jobs] pool size. The static
   (transparent) table compiler is exercised both in the explicitly
   cross-checkable regime and at a scenario count where only the
   symbolic backend is feasible. *)

module Sim = Ftes_sim.Sim
module Symbolic = Ftes_sim.Symbolic
module Violation = Ftes_sim.Violation
module Table = Ftes_sched.Table
module Conditional = Ftes_sched.Conditional
module Statictable = Ftes_sched.Statictable
module Ftcpg = Ftes_ftcpg.Ftcpg
module Cond = Ftes_ftcpg.Cond
module Condvec = Ftes_ftcpg.Condvec

let fig5_table () = Conditional.schedule (Ftcpg.build (Helpers.fig5_problem ()))

let tight_fig5_table () =
  let t = fig5_table () in
  let p = Ftcpg.problem t.Table.ftcpg in
  let deadline = 0.9 *. Table.no_fault_length t in
  let tight =
    Ftes_ftcpg.Problem.make
      ~app:(Ftes_app.App.with_deadline p.Ftes_ftcpg.Problem.app deadline)
      ~arch:p.Ftes_ftcpg.Problem.arch ~wcet:p.Ftes_ftcpg.Problem.wcet ~k:2
      ~policies:p.Ftes_ftcpg.Problem.policies
      ~mapping:p.Ftes_ftcpg.Problem.mapping
  in
  Conditional.schedule (Ftcpg.build tight)

(* When the closed-form scenario count is claimed, it must agree with
   the materialized arena. *)
let check_closed_form_count name f =
  match Symbolic.frozen_scenario_count f with
  | None -> ()
  | Some c ->
      Alcotest.(check int)
        (Printf.sprintf "%s: closed-form scenario count" name)
        (Ftcpg.scenario_count f) (int_of_float c)

(* The core contract: same verdict as the explicit oracle, every
   symbolic violation is in the explicit list AND replays explicitly
   from its own witness scenario, and the result is jobs-invariant. *)
let check_symbolic name t =
  check_closed_form_count name t.Table.ftcpg;
  let reference = Sim_oracle.validate ~jobs:1 t in
  let ref_msgs = List.map Violation.to_string reference in
  let sym = Sim.validate ~jobs:1 ~mode:`Symbolic t in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s: jobs=%d invariant" name jobs)
        (List.map Violation.to_string sym)
        (List.map Violation.to_string
           (Sim.validate ~jobs ~mode:`Symbolic t)))
    [ 1; 4 ];
  Alcotest.(check bool)
    (Printf.sprintf "%s: verdict agrees with explicit oracle" name)
    (ref_msgs <> []) (sym <> []);
  List.iter
    (fun v ->
      let msg = Violation.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S is an explicit violation" name msg)
        true
        (List.mem msg ref_msgs);
      match v.Violation.scenario with
      | None -> () (* cross-scenario transparency finding *)
      | Some s ->
          let replayed =
            List.map Violation.to_string
              (Sim_oracle.run t ~scenario:s).Sim.violations
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S replays from its witness scenario" name
               msg)
            true (List.mem msg replayed))
    sym

let test_clean_table () = check_symbolic "fig5" (fig5_table ())

let test_tight_table () =
  let t = tight_fig5_table () in
  Alcotest.(check bool) "tight table does violate" true
    (Sim.validate ~mode:`Symbolic t <> []);
  check_symbolic "tight-fig5" t

(* The same corrupted constructions the packed suite uses: a causality
   break, a dropped activation and an ambiguous duplicated broadcast. *)
let test_corrupted_tables () =
  let t = fig5_table () in
  let victim =
    List.find
      (fun e ->
        match e.Table.item with
        | Table.Exec vid ->
            (Ftcpg.vertex t.Table.ftcpg vid).Ftcpg.preds <> []
            && e.Table.start > 50.
        | Table.Bcast _ -> false)
      t.Table.entries
  in
  let causality_bad =
    Table.make ~ftcpg:t.Table.ftcpg
      ~entries:
        (List.map
           (fun e ->
             if e == victim then
               {
                 e with
                 Table.start = 0.;
                 finish = e.Table.finish -. e.Table.start;
               }
             else e)
           t.Table.entries)
      ~tracks:t.Table.tracks
  in
  check_symbolic "causality-corrupted" causality_bad;
  let dropped_vid =
    List.rev t.Table.entries
    |> List.find_map (fun e ->
           match e.Table.item with Table.Exec vid -> Some vid | _ -> None)
    |> Option.get
  in
  let missing_bad =
    Table.make ~ftcpg:t.Table.ftcpg
      ~entries:
        (List.filter
           (fun e -> e.Table.item <> Table.Exec dropped_vid)
           t.Table.entries)
      ~tracks:t.Table.tracks
  in
  check_symbolic "missing-activation" missing_bad;
  match
    List.find_opt
      (fun e ->
        match e.Table.item with Table.Bcast _ -> true | Table.Exec _ -> false)
      t.Table.entries
  with
  | None -> Alcotest.fail "fig5 table has no broadcast entry"
  | Some b ->
      let dup =
        {
          b with
          Table.start = b.Table.start +. 5.;
          finish = b.Table.finish +. 5.;
        }
      in
      let bcast_bad =
        Table.make ~ftcpg:t.Table.ftcpg ~entries:(dup :: t.Table.entries)
          ~tracks:t.Table.tracks
      in
      check_symbolic "ambiguous-broadcast" bcast_bad

let test_random_instances () =
  List.iter
    (fun (seed, processes, nodes, k) ->
      let p = Helpers.random_problem ~processes ~nodes ~k ~seed () in
      let t = Conditional.schedule (Ftcpg.build p) in
      check_symbolic
        (Printf.sprintf "random seed=%d n=%d k=%d" seed processes k)
        t)
    [ (3, 6, 2, 2); (11, 8, 2, 3); (29, 7, 3, 2) ]

(* qcheck sweep: verdict identity on random conditionally scheduled
   instances (small sizes — each iteration schedules and validates). *)
let qcheck_verdict =
  Helpers.qtest ~count:15 "random verdicts: symbolic = explicit"
    (QCheck.make
       ~print:(fun (seed, n, k) -> Printf.sprintf "seed=%d n=%d k=%d" seed n k)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 4 8) (int_range 2 3)))
    (fun (seed, processes, k) ->
      match
        Conditional.schedule
          (Ftcpg.build (Helpers.random_problem ~processes ~nodes:2 ~k ~seed ()))
      with
      | exception (Ftcpg.Too_large _ | Conditional.Too_many_tracks _) -> true
      | t ->
          let explicit = Sim.validate ~jobs:1 t in
          let sym = Sim.validate ~jobs:1 ~mode:`Symbolic t in
          (explicit <> []) = (sym <> []))

let test_corpus_smoke () =
  let module I = Ftes_corpus.Instance in
  let instances =
    Ftes_corpus.Registry.select ~tiers:[ I.Smoke ] ()
    |> List.filter (fun i ->
           match (i.I.check, i.I.source) with
           | I.Exhaustive, I.Generated _ -> true
           | _ -> false)
  in
  Alcotest.(check bool) "smoke tier has exhaustive instances" true
    (instances <> []);
  List.iteri
    (fun n inst ->
      if n < 5 then
        let t = Conditional.schedule (Ftcpg.build (I.problem inst)) in
        check_symbolic inst.I.id t)
    instances

(* --- static (transparent) tables ----------------------------------- *)

let test_static_tables_cross_checked () =
  List.iter
    (fun (processes, k, seed) ->
      let p = Helpers.transparent_problem ~processes ~nodes:2 ~k ~seed () in
      let f = Ftcpg.build p in
      let t = Statictable.schedule f in
      (match Symbolic.frozen_scenario_count f with
      | None ->
          Alcotest.fail "transparent instance should have a closed-form count"
      | Some c ->
          Alcotest.(check int)
            (Printf.sprintf "static n=%d k=%d: closed form = arena" processes k)
            (Ftcpg.scenario_count f) (int_of_float c));
      check_symbolic (Printf.sprintf "static n=%d k=%d seed=%d" processes k seed)
        t)
    [ (6, 1, 3); (8, 2, 5); (8, 3, 7) ]

let test_static_not_transparent_rejected () =
  let f = Ftcpg.build (Helpers.fig5_problem ()) in
  match Statictable.schedule f with
  | exception Statictable.Not_transparent _ -> ()
  | _ -> Alcotest.fail "fig5 is not transparent; schedule should refuse"

(* The whole point of the backend: a scenario space far beyond any
   explicit arena budget, validated clean in a handful of cube replays
   with no splits. *)
let test_static_large_k_symbolic_only () =
  let p = Helpers.transparent_problem ~processes:40 ~nodes:2 ~k:6 ~seed:11 () in
  let f = Ftcpg.build p in
  let t = Statictable.schedule f in
  (match Symbolic.frozen_scenario_count f with
  | None -> Alcotest.fail "expected a closed-form count"
  | Some c ->
      Alcotest.(check bool) "scenario count is explicitly infeasible" true
        (c > 1e6));
  let vs, stats = Symbolic.check_stats ~jobs:1 t in
  Alcotest.(check (list string)) "clean" []
    (List.map Violation.to_string vs);
  Alcotest.(check int) "no splits on a transparent table" 0 stats.Symbolic.splits;
  Alcotest.(check bool) "bounded cube work" true (stats.Symbolic.cubes < 64);
  Alcotest.(check (list string)) "Auto picks the symbolic backend" []
    (List.map Violation.to_string (Sim.validate ~jobs:1 ~mode:`Auto t))

(* --- mode dispatch -------------------------------------------------- *)

let test_auto_small_is_explicit () =
  let t = tight_fig5_table () in
  Alcotest.(check (list string)) "Auto = Explicit below the threshold"
    (List.map Violation.to_string (Sim.validate ~jobs:1 t))
    (List.map Violation.to_string (Sim.validate ~jobs:1 ~mode:`Auto t))

(* --- hardened Condvec primitives (satellite) ------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_universe_rejects_unsorted () =
  match Condvec.universe [| 5; 3 |] with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the condition: %s" msg)
        true
        (contains msg "condition 3" && contains msg "condition 5")
  | _ -> Alcotest.fail "expected Invalid_argument for unsorted condition ids"

let test_fields_per_word () =
  Alcotest.(check int) "31 two-bit fields per 62-bit word" 31
    Condvec.fields_per_word

let test_guard_words () =
  let u = Condvec.universe (Array.init 40 (fun i -> (3 * i) + 1)) in
  let m, b = Condvec.guard_words (Condvec.guard_true u) in
  Alcotest.(check bool) "true guard has empty words" true
    (Array.for_all (( = ) 0) m && Array.for_all (( = ) 0) b);
  let g =
    Option.get (Cond.of_literals [ { Cond.cond = 4; fault = true } ])
  in
  let m, _ = Condvec.guard_words (Condvec.pack_guard u g) in
  Alcotest.(check bool) "literal guard has a nonempty mask" true
    (Array.exists (( <> ) 0) m)

let test_singleton () =
  let u = Condvec.universe (Array.init 40 (fun i -> (3 * i) + 1)) in
  let row = Condvec.create_row u in
  Condvec.set u row 2 true;
  Condvec.set u row 35 false;
  let sp = Condvec.singleton u row in
  Alcotest.(check int) "count" 1 (Condvec.count sp);
  Alcotest.(check bool) "guard_at 0 round-trips the row" true
    (Cond.equal (Condvec.guard_at sp 0) (Condvec.guard_of_row u row));
  let narrow = Condvec.universe [| 1 |] in
  match Condvec.singleton narrow row with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for a mismatched row width"

let () =
  Alcotest.run "sim-symbolic"
    [
      ( "equivalence",
        [
          Alcotest.test_case "clean table" `Quick test_clean_table;
          Alcotest.test_case "tight table" `Quick test_tight_table;
          Alcotest.test_case "corrupted tables" `Quick test_corrupted_tables;
          Alcotest.test_case "random instances" `Quick test_random_instances;
          qcheck_verdict;
          Alcotest.test_case "corpus smoke instances" `Slow test_corpus_smoke;
        ] );
      ( "static-tables",
        [
          Alcotest.test_case "cross-checked against explicit" `Quick
            test_static_tables_cross_checked;
          Alcotest.test_case "non-transparent rejected" `Quick
            test_static_not_transparent_rejected;
          Alcotest.test_case "k=6 beyond the explicit arena" `Slow
            test_static_large_k_symbolic_only;
        ] );
      ( "modes",
        [
          Alcotest.test_case "Auto = Explicit on small spaces" `Quick
            test_auto_small_is_explicit;
        ] );
      ( "condvec-hardening",
        [
          Alcotest.test_case "universe rejects unsorted ids" `Quick
            test_universe_rejects_unsorted;
          Alcotest.test_case "fields_per_word" `Quick test_fields_per_word;
          Alcotest.test_case "guard_words" `Quick test_guard_words;
          Alcotest.test_case "singleton" `Quick test_singleton;
        ] );
    ];
  Ftes_util.Par.shutdown ()
