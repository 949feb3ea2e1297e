(* Tests for the FT-CPG layer: guard algebra, mappings, problem
   instances and the FT-CPG construction itself — checked against the
   exact structure of the paper's Fig. 5b. *)

module Cond = Ftes_ftcpg.Cond
module Mapping = Ftes_ftcpg.Mapping
module Problem = Ftes_ftcpg.Problem
module Ftcpg = Ftes_ftcpg.Ftcpg
module Policy = Ftes_app.Policy
module Graph = Ftes_app.Graph

(* ------------------------------------------------------------------ *)
(* Cond — guard algebra                                                *)
(* ------------------------------------------------------------------ *)

let lit cond fault = { Cond.cond; fault }

let guard_of_list ls = Option.get (Cond.of_literals ls)

let test_cond_basics () =
  let g = guard_of_list [ lit 2 true; lit 1 false ] in
  Alcotest.(check int) "size" 2 (Cond.size g);
  Alcotest.(check int) "faults" 1 (Cond.fault_count g);
  Alcotest.(check (option bool)) "value 1" (Some false) (Cond.value g 1);
  Alcotest.(check (option bool)) "value 3" None (Cond.value g 3);
  (* Normalized: sorted by condition. *)
  Alcotest.(check (list bool)) "sorted"
    [ false; true ]
    (List.map (fun l -> l.Cond.fault) (Cond.literals g))

let test_cond_contradiction () =
  Alcotest.(check bool) "contradictory" true
    (Cond.of_literals [ lit 1 true; lit 1 false ] = None);
  let g = guard_of_list [ lit 1 true ] in
  Alcotest.(check bool) "add contradiction" true (Cond.add g (lit 1 false) = None);
  Alcotest.check_raises "add_exn" (Invalid_argument "Cond.add_exn: contradictory literal")
    (fun () -> ignore (Cond.add_exn g (lit 1 false)))

let test_cond_implies () =
  let g1 = guard_of_list [ lit 1 true; lit 2 false ] in
  let g2 = guard_of_list [ lit 1 true ] in
  Alcotest.(check bool) "specific implies general" true (Cond.implies g1 g2);
  Alcotest.(check bool) "general does not imply specific" false
    (Cond.implies g2 g1);
  Alcotest.(check bool) "anything implies true" true (Cond.implies g2 Cond.true_)

let test_cond_to_string () =
  let g = guard_of_list [ lit 1 true; lit 2 false ] in
  Alcotest.(check string) "default names" "c1 & !c2" (Cond.to_string g);
  Alcotest.(check string) "true" "true" (Cond.to_string Cond.true_)

let small_guard =
  (* Random guard over conditions 0..5. *)
  let gen =
    QCheck.Gen.(
      list_size (int_bound 6) (pair (int_bound 5) bool) >>= fun ls ->
      return (Cond.of_literals (List.map (fun (c, f) -> lit c f) ls)))
  in
  QCheck.make
    ~print:(function Some g -> Cond.to_string g | None -> "<contradiction>")
    gen

let cond_props =
  [
    Helpers.qtest "conjoin commutes"
      QCheck.(pair small_guard small_guard)
      (fun (a, b) ->
        match (a, b) with
        | Some a, Some b -> (
            match (Cond.conjoin a b, Cond.conjoin b a) with
            | Some x, Some y -> Cond.equal x y
            | None, None -> true
            | _ -> false)
        | _ -> true);
    Helpers.qtest "conjunction implies both"
      QCheck.(pair small_guard small_guard)
      (fun (a, b) ->
        match (a, b) with
        | Some a, Some b -> (
            match Cond.conjoin a b with
            | Some c -> Cond.implies c a && Cond.implies c b
            | None -> not (Cond.compatible a b))
        | _ -> true);
    Helpers.qtest "implies is reflexive and transitive via conjoin"
      small_guard
      (fun a ->
        match a with
        | Some a ->
            Cond.implies a a
            && Cond.equal (Option.get (Cond.conjoin a a)) a
        | None -> true);
    Helpers.qtest "intersect implied by both"
      QCheck.(pair small_guard small_guard)
      (fun (a, b) ->
        match (a, b) with
        | Some a, Some b ->
            let c = Table_oracle.intersect a b in
            Cond.implies a c && Cond.implies b c
        | _ -> true);
    Helpers.qtest "fault_count bounded by size" small_guard (fun a ->
        match a with
        | Some a -> Cond.fault_count a <= Cond.size a
        | None -> true);
  ]

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let test_mapping_basics () =
  let m = Mapping.make [ (0, [ 1 ]); (1, [ 0; 2 ]) ] in
  Alcotest.(check int) "procs" 2 (Mapping.proc_count m);
  Alcotest.(check int) "node of" 2 (Mapping.node_of m ~pid:1 ~copy:1);
  Alcotest.(check (list int)) "copies" [ 0; 2 ] (Mapping.copies m ~pid:1);
  let m2 = Mapping.remap m ~pid:1 ~copy:0 ~nid:5 in
  Alcotest.(check int) "remapped" 5 (Mapping.node_of m2 ~pid:1 ~copy:0);
  Alcotest.(check int) "original intact" 0 (Mapping.node_of m ~pid:1 ~copy:0);
  Alcotest.(check bool) "equal" false (Mapping.equal m m2)

let test_mapping_errors () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Mapping.make: duplicate process")
    (fun () -> ignore (Mapping.make [ (0, [ 0 ]); (0, [ 1 ]) ]));
  Alcotest.check_raises "non-dense ids"
    (Invalid_argument "Mapping.make: process ids must be dense 0..n-1")
    (fun () -> ignore (Mapping.make [ (0, [ 0 ]); (2, [ 1 ]) ]))

let test_mapping_validate () =
  let app = Ftes_app.App.fig3 () in
  let _, wcet = Ftes_arch.Examples.fig3 () in
  let policies = Problem.default_policies ~app ~k:1 in
  (* P3 (pid 2) is restricted to N1 in Fig. 3c. *)
  let bad = Mapping.make [ (0, [ 0 ]); (1, [ 0 ]); (2, [ 1 ]); (3, [ 0 ]); (4, [ 0 ]) ] in
  Alcotest.check_raises "forbidden node"
    (Invalid_argument "Mapping.validate: process 2 mapped to forbidden node 1")
    (fun () -> Mapping.validate bad ~wcet ~policies)

(* ------------------------------------------------------------------ *)
(* Problem                                                             *)
(* ------------------------------------------------------------------ *)

let test_problem_validation () =
  let app = Ftes_app.App.fig3 () in
  let arch, wcet = Ftes_arch.Examples.fig3 () in
  let policies = Problem.default_policies ~app ~k:1 in
  let mapping = Problem.fastest_mapping ~app ~wcet ~policies in
  let p = Problem.make ~app ~arch ~wcet ~k:1 ~policies ~mapping in
  Alcotest.(check int) "k" 1 p.Problem.k;
  (* A policy that does not tolerate k is rejected. *)
  let weak = Array.copy policies in
  weak.(0) <- Policy.re_execution ~recoveries:0;
  Alcotest.check_raises "weak policy"
    (Invalid_argument
       "Problem.make: policy of process 0 tolerates only 0 < 1 faults")
    (fun () -> ignore (Problem.make ~app ~arch ~wcet ~k:1 ~policies:weak ~mapping))

let test_fastest_mapping_wraps () =
  let app = Ftes_app.App.fig3 () in
  let _, wcet = Ftes_arch.Examples.fig3 () in
  (* Replication with k = 3 needs 4 copies on 2 nodes: wraps around. *)
  let policies =
    Array.init 5 (fun _ -> Policy.replication ~k:3)
  in
  let m = Problem.fastest_mapping ~app ~wcet ~policies in
  Alcotest.(check int) "4 copies" 4 (Mapping.copy_count m ~pid:0);
  (* P3 allows only N1: all copies land there. *)
  Alcotest.(check (list int)) "restricted wraps" [ 0; 0; 0; 0 ]
    (Mapping.copies m ~pid:2)

let test_copy_wcet () =
  let p = Helpers.fig5_problem () in
  Helpers.check_float "P1 on N1" 30. (Problem.copy_wcet p ~pid:0 ~copy:0);
  Helpers.check_float "P3 on N2" 20. (Problem.copy_wcet p ~pid:2 ~copy:0)

(* ------------------------------------------------------------------ *)
(* Ftcpg — Fig. 5b structure                                           *)
(* ------------------------------------------------------------------ *)

let fig5_ftcpg () = Ftcpg.build (Helpers.fig5_problem ())

let test_fig5_copy_counts () =
  let f = fig5_ftcpg () in
  (* The paper's Fig. 5b: P1 has 3 copies, P2 6, P3 3, P4 6. *)
  let counts =
    List.map
      (fun pid -> List.length (Ftcpg.proc_copies f ~pid))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "copies" [ 3; 6; 3; 6 ] counts

let test_fig5_sync_nodes () =
  let f = fig5_ftcpg () in
  let syncs =
    Array.to_list (Ftcpg.vertices f)
    |> List.filter_map (fun v ->
           match v.Ftcpg.kind with
           | Ftcpg.Sync_proc _ | Ftcpg.Sync_msg _ -> Some v.Ftcpg.name
           | Ftcpg.Proc_copy _ | Ftcpg.Msg_inst _ -> None)
  in
  Alcotest.(check (list string)) "sync nodes" [ "P3^S"; "m2^S"; "m3^S" ]
    (List.sort compare syncs)

let test_fig5_conditionals () =
  let f = fig5_ftcpg () in
  (* P1: 2, P2: 3 (2+1+0 per context), P3: 2, P4: 3. *)
  Alcotest.(check int) "conditional count" 10
    (List.length (Ftcpg.conditional_vertices f))

let test_fig5_scenarios () =
  let f = fig5_ftcpg () in
  let scenarios = Sim_oracle.scenarios f in
  Alcotest.(check int) "scenario count" 15 (List.length scenarios);
  (* Budget respected and exactly one fault-free scenario. *)
  Alcotest.(check bool) "budget" true
    (List.for_all (fun s -> Ftcpg.scenario_fault_count s <= 2) scenarios);
  Alcotest.(check int) "one fault-free" 1
    (List.length
       (List.filter (fun s -> Ftcpg.scenario_fault_count s = 0) scenarios));
  (* Scenarios are pairwise distinct. *)
  Alcotest.(check int) "distinct" 15
    (List.length (List.sort_uniq Cond.compare scenarios))

let test_fig5_frozen_flags () =
  let f = fig5_ftcpg () in
  Array.iter
    (fun v ->
      match v.Ftcpg.kind with
      | Ftcpg.Proc_copy { pid = 2; _ } ->
          Alcotest.(check bool) ("frozen " ^ v.Ftcpg.name) true v.Ftcpg.frozen
      | Ftcpg.Proc_copy _ ->
          Alcotest.(check bool) ("not frozen " ^ v.Ftcpg.name) false
            v.Ftcpg.frozen
      | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ | Ftcpg.Msg_inst _ -> ())
    (Ftcpg.vertices f)

let test_fig5_frozen_context_collapse () =
  let f = fig5_ftcpg () in
  (* P3's first attempt exists unconditionally (guard only over its own
     chain): transparency hides upstream faults. *)
  let p3_first =
    List.find
      (fun vid ->
        match (Ftcpg.vertex f vid).Ftcpg.kind with
        | Ftcpg.Proc_copy { attempt = 1; _ } -> true
        | _ -> false)
      (Ftcpg.proc_copies f ~pid:2)
  in
  Alcotest.(check bool) "guard true" true
    (Cond.equal (Ftcpg.vertex f p3_first).Ftcpg.guard Cond.true_)

let test_fig5_durations () =
  let f = fig5_ftcpg () in
  (* P1: C=30, alpha=5, mu=chi=0. First attempt 35; a recovery 35; the
     last recovery (budget exhausted) 30. *)
  match Ftcpg.proc_copies f ~pid:0 with
  | [ a1; a2; a3 ] ->
      Helpers.check_float "attempt 1" 35. (Ftcpg.vertex f a1).Ftcpg.duration;
      Helpers.check_float "attempt 2" 35. (Ftcpg.vertex f a2).Ftcpg.duration;
      Helpers.check_float "attempt 3 (no detection)" 30.
        (Ftcpg.vertex f a3).Ftcpg.duration
  | _ -> Alcotest.fail "expected 3 copies of P1"

let test_too_large () =
  let p = Helpers.over_limit_problem ~processes:30 in
  Alcotest.(check bool) "raises Too_large" true
    (match Ftcpg.build p with
    | exception Ftcpg.Too_large cap -> cap = Ftcpg.vertex_cap
    | _ -> false)

(* Structural properties over random instances. *)
let random_ftcpg_arb =
  QCheck.make
    ~print:(fun (seed, n, k) -> Printf.sprintf "seed=%d n=%d k=%d" seed n k)
    QCheck.Gen.(
      triple (int_bound 10_000) (int_range 2 10) (int_range 1 2))

let build_random (seed, n, k) =
  let p =
    Helpers.random_problem ~processes:n ~nodes:2 ~k ~seed ()
  in
  Ftcpg.build p

let ftcpg_props =
  [
    Helpers.qtest ~count:60 "vertices are topologically ordered"
      random_ftcpg_arb
      (fun input ->
        let f = build_random input in
        Array.for_all
          (fun v -> List.for_all (fun p -> p < v.Ftcpg.vid) v.Ftcpg.preds)
          (Ftcpg.vertices f));
    Helpers.qtest ~count:60 "succs mirror preds" random_ftcpg_arb
      (fun input ->
        let f = build_random input in
        Array.for_all
          (fun v ->
            List.for_all
              (fun s -> List.mem v.Ftcpg.vid (Ftcpg.vertex f s).Ftcpg.preds)
              v.Ftcpg.succs)
          (Ftcpg.vertices f));
    Helpers.qtest ~count:60 "guards are downward closed" random_ftcpg_arb
      (fun input ->
        let f = build_random input in
        (* Every literal of a guard refers to an earlier conditional
           vertex, and that vertex's guard is implied. *)
        Array.for_all
          (fun v ->
            List.for_all
              (fun (l : Cond.literal) ->
                let producer = Ftcpg.vertex f l.Cond.cond in
                producer.Ftcpg.conditional
                && Cond.implies v.Ftcpg.guard producer.Ftcpg.guard)
              (Cond.literals v.Ftcpg.guard))
          (Ftcpg.vertices f));
    Helpers.qtest ~count:60 "scenario budget respected" random_ftcpg_arb
      (fun input ->
        let f = build_random input in
        let k = (Ftcpg.problem f).Problem.k in
        List.for_all
          (fun s -> Ftcpg.scenario_fault_count s <= k)
          (Sim_oracle.scenarios f));
    Helpers.qtest ~count:60 "every vertex reachable in some scenario"
      random_ftcpg_arb
      (fun input ->
        let f = build_random input in
        let scenarios = Sim_oracle.scenarios f in
        Array.for_all
          (fun v ->
            List.exists
              (fun s -> Ftcpg.exists_in f ~scenario:s v.Ftcpg.vid)
              scenarios)
          (Ftcpg.vertices f));
    Helpers.qtest ~count:60 "replicated processes hide conditions downstream"
      random_ftcpg_arb
      (fun input ->
        let f = build_random input in
        let problem = Ftcpg.problem f in
        let g = Problem.graph problem in
        (* Consumers of a replicated producer never carry the producer's
           conditions in their guards (merge nodes hide them). *)
        Array.for_all
          (fun v ->
            match v.Ftcpg.kind with
            | Ftcpg.Proc_copy { pid; attempt = 1; _ } ->
                List.for_all
                  (fun (l : Cond.literal) ->
                    match (Ftcpg.vertex f l.Cond.cond).Ftcpg.kind with
                    | Ftcpg.Proc_copy { pid = src; _ } ->
                        src = pid
                        || Policy.replica_count
                             problem.Problem.policies.(src)
                           = 1
                    | _ -> true)
                  (Cond.literals v.Ftcpg.guard)
                || Graph.in_messages g pid = []
            | _ -> true)
          (Ftcpg.vertices f));
  ]

let () =
  Alcotest.run "ftcpg"
    [
      ( "cond",
        [
          Alcotest.test_case "basics" `Quick test_cond_basics;
          Alcotest.test_case "contradiction" `Quick test_cond_contradiction;
          Alcotest.test_case "implies" `Quick test_cond_implies;
          Alcotest.test_case "to_string" `Quick test_cond_to_string;
        ]
        @ cond_props );
      ( "mapping",
        [
          Alcotest.test_case "basics" `Quick test_mapping_basics;
          Alcotest.test_case "errors" `Quick test_mapping_errors;
          Alcotest.test_case "validate" `Quick test_mapping_validate;
        ] );
      ( "problem",
        [
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "fastest mapping wraps" `Quick
            test_fastest_mapping_wraps;
          Alcotest.test_case "copy wcet" `Quick test_copy_wcet;
        ] );
      ( "ftcpg-fig5",
        [
          Alcotest.test_case "copy counts (3,6,3,6)" `Quick
            test_fig5_copy_counts;
          Alcotest.test_case "sync nodes" `Quick test_fig5_sync_nodes;
          Alcotest.test_case "conditional count" `Quick test_fig5_conditionals;
          Alcotest.test_case "15 scenarios" `Quick test_fig5_scenarios;
          Alcotest.test_case "frozen flags" `Quick test_fig5_frozen_flags;
          Alcotest.test_case "frozen context collapse" `Quick
            test_fig5_frozen_context_collapse;
          Alcotest.test_case "attempt durations" `Quick test_fig5_durations;
          Alcotest.test_case "vertex cap" `Quick test_too_large;
        ] );
      ("ftcpg-props", ftcpg_props);
    ]
