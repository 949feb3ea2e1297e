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
   by the fuzz-style integration tests. *)
let random_problem ?(frozen = true) ?(mixed_policies = true)
    ?(bus = Ftes_workload.Gen.default.bus) ~processes ~nodes ~k ~seed () =
  let spec =
    {
      Ftes_workload.Gen.default with
      processes;
      nodes;
      seed;
      bus;
      frozen_msg_prob = (if frozen then 0.25 else 0.);
      frozen_proc_prob = (if frozen then 0.2 else 0.);
    }
  in
  let p = Ftes_workload.Gen.problem ~k spec in
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
