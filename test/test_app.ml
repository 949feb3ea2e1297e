(* Tests for the application model: overheads, the fault-tolerance
   timing formulas (checked against the paper's Fig. 1 numbers), policy
   assignments, process graphs, transparency and hyperperiod merging. *)

module Overheads = Ftes_app.Overheads
module Fttime = Ftes_app.Fttime
module Policy = Ftes_app.Policy
module Graph = Ftes_app.Graph
module Transparency = Ftes_app.Transparency
module App = Ftes_app.App
module Merge = Ftes_app.Merge

(* ------------------------------------------------------------------ *)
(* Overheads                                                           *)
(* ------------------------------------------------------------------ *)

let test_overheads_make () =
  let o = Overheads.make ~alpha:1. ~mu:2. ~chi:3. in
  Helpers.check_float "alpha" 1. o.Overheads.alpha;
  Helpers.check_float "mu" 2. o.Overheads.mu;
  Helpers.check_float "chi" 3. o.Overheads.chi;
  Alcotest.check_raises "negative" (Invalid_argument "Overheads.make: negative overhead")
    (fun () -> ignore (Overheads.make ~alpha:(-1.) ~mu:0. ~chi:0.))

let test_overheads_fig1 () =
  let o = Overheads.fig1 in
  Helpers.check_float "alpha" 10. o.Overheads.alpha;
  Helpers.check_float "mu" 10. o.Overheads.mu;
  Helpers.check_float "chi" 5. o.Overheads.chi

let test_overheads_scale () =
  let o = Overheads.scale 2. Overheads.fig1 in
  Helpers.check_float "alpha scaled" 20. o.Overheads.alpha;
  Alcotest.(check bool) "equal" true
    (Overheads.equal (Overheads.scale 1. Overheads.fig1) Overheads.fig1)

(* ------------------------------------------------------------------ *)
(* Fttime — the paper's Fig. 1 numbers                                 *)
(* ------------------------------------------------------------------ *)

let o1 = Overheads.fig1
let c1 = 60.

let test_fig1_no_fault () =
  (* One checkpoint: 60 + 1*(10+5) = 75; two: 60 + 2*15 = 90. *)
  Helpers.check_float "E0(1)" 75. (Fttime.no_fault_length ~c:c1 o1 ~checkpoints:1);
  Helpers.check_float "E0(2)" 90. (Fttime.no_fault_length ~c:c1 o1 ~checkpoints:2)

let test_fig1_worst_case () =
  (* Fig. 1c: two checkpoints, one fault: 90 + (10 + 30) = 130 ms; the
     last recovery pays no detection overhead. *)
  Helpers.check_float "W(2,1) = 130" 130.
    (Fttime.worst_case_length ~c:c1 o1 ~checkpoints:2 ~recoveries:1);
  (* Plain re-execution of the whole process: 75 + (10 + 60) = 145. *)
  Helpers.check_float "W(1,1) = 145" 145.
    (Fttime.worst_case_length ~c:c1 o1 ~checkpoints:1 ~recoveries:1)

let test_segment_and_recovery () =
  Helpers.check_float "segment" 30. (Fttime.segment_length ~c:c1 ~checkpoints:2);
  Helpers.check_float "recovery (not last)" 50.
    (Fttime.recovery_cost ~c:c1 o1 ~checkpoints:2 ~last:false);
  Helpers.check_float "recovery (last)" 40.
    (Fttime.recovery_cost ~c:c1 o1 ~checkpoints:2 ~last:true)

let test_recovery_slack () =
  Helpers.check_float "slack = W - E0" 40.
    (Fttime.recovery_slack ~c:c1 o1 ~checkpoints:2 ~recoveries:1)

let test_replica_length () =
  Helpers.check_float "replica" 70. (Fttime.replica_length ~c:c1 o1)

let test_fttime_errors () =
  Alcotest.check_raises "zero checkpoints"
    (Invalid_argument "Fttime: checkpoints < 1") (fun () ->
      ignore (Fttime.no_fault_length ~c:1. o1 ~checkpoints:0));
  Alcotest.check_raises "negative recoveries"
    (Invalid_argument "Fttime: negative recoveries") (fun () ->
      ignore (Fttime.worst_case_length ~c:1. o1 ~checkpoints:1 ~recoveries:(-1)))

let fttime_props =
  let arb =
    QCheck.(
      quad (float_range 1. 500.) (float_range 0. 50.) (int_range 1 20)
        (int_range 0 8))
  in
  [
    Helpers.qtest "W(n,0) = E0(n)" arb (fun (c, a, n, _) ->
        let o = Overheads.make ~alpha:a ~mu:a ~chi:(a /. 2.) in
        Fttime.worst_case_length ~c o ~checkpoints:n ~recoveries:0
        = Fttime.no_fault_length ~c o ~checkpoints:n);
    Helpers.qtest "W monotone in recoveries" arb (fun (c, a, n, r) ->
        let o = Overheads.make ~alpha:a ~mu:a ~chi:(a /. 2.) in
        Fttime.worst_case_length ~c o ~checkpoints:n ~recoveries:r
        <= Fttime.worst_case_length ~c o ~checkpoints:n ~recoveries:(r + 1)
           +. 1e-9);
    Helpers.qtest "E0 grows with checkpoints when overheads positive" arb
      (fun (c, a, n, _) ->
        let o = Overheads.make ~alpha:(a +. 0.1) ~mu:0. ~chi:0.1 in
        Fttime.no_fault_length ~c o ~checkpoints:n
        < Fttime.no_fault_length ~c o ~checkpoints:(n + 1));
    Helpers.qtest "recovery slack consistent" arb (fun (c, a, n, r) ->
        let o = Overheads.make ~alpha:a ~mu:(a /. 2.) ~chi:a in
        Float.abs
          (Fttime.recovery_slack ~c o ~checkpoints:n ~recoveries:r
          -. (Fttime.worst_case_length ~c o ~checkpoints:n ~recoveries:r
             -. Fttime.no_fault_length ~c o ~checkpoints:n))
        < 1e-9);
  ]

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

let test_policy_checkpointing () =
  let p = Policy.checkpointing ~recoveries:2 ~checkpoints:3 in
  Alcotest.(check int) "copies" 1 (Policy.replica_count p);
  Alcotest.(check int) "tolerates" 2 (Policy.tolerated_faults p);
  Alcotest.(check bool) "kind" true (Policy.kind p = Policy.Checkpointing)

let test_policy_replication () =
  let p = Policy.replication ~k:2 in
  Alcotest.(check int) "copies = k+1" 3 (Policy.replica_count p);
  Alcotest.(check int) "added replicas = k" 2 (Policy.added_replicas p);
  Alcotest.(check int) "tolerates" 2 (Policy.tolerated_faults p);
  Alcotest.(check bool) "kind" true (Policy.kind p = Policy.Replication)

let test_policy_combined_fig4c () =
  (* Fig. 4c: Q = 1, R = (0, 1) tolerates k = 2. *)
  let p = Policy.combined ~replicas:1 ~recoveries_per_copy:[ 0; 1 ] in
  Alcotest.(check int) "copies" 2 (Policy.replica_count p);
  Alcotest.(check int) "tolerates k=2" 2 (Policy.tolerated_faults p);
  Alcotest.(check bool) "kind" true
    (Policy.kind p = Policy.Replication_and_checkpointing);
  Alcotest.(check bool) "tolerates 2" true (Policy.tolerates p ~k:2);
  Alcotest.(check bool) "not 3" false (Policy.tolerates p ~k:3)

let test_policy_with_checkpoints () =
  let p = Policy.re_execution ~recoveries:2 in
  let p' = Policy.with_checkpoints p ~copy:0 ~checkpoints:4 in
  Alcotest.(check int) "updated" 4 p'.Policy.copies.(0).Policy.checkpoints;
  Alcotest.(check int) "original intact" 1 p.Policy.copies.(0).Policy.checkpoints;
  Alcotest.(check bool) "not equal" false (Policy.equal p p')

let test_policy_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Policy.make: no copies")
    (fun () -> ignore (Policy.make []));
  Alcotest.check_raises "bad checkpoints"
    (Invalid_argument "Policy: checkpoints < 1") (fun () ->
      ignore (Policy.make [ { Policy.recoveries = 0; checkpoints = 0 } ]));
  Alcotest.check_raises "negative recoveries"
    (Invalid_argument "Policy: negative recoveries") (fun () ->
      ignore (Policy.make [ { Policy.recoveries = -1; checkpoints = 1 } ]));
  Alcotest.check_raises "combined arity"
    (Invalid_argument "Policy.combined: need one recovery budget per copy")
    (fun () ->
      ignore (Policy.combined ~replicas:2 ~recoveries_per_copy:[ 1 ]))

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let diamond () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_process b ~name:"A" in
  let b1 = Graph.Builder.add_process b ~name:"B" in
  let c = Graph.Builder.add_process b ~name:"C" in
  let d = Graph.Builder.add_process b ~name:"D" in
  let m1 = Graph.Builder.add_message b ~src:a ~dst:b1 ~size:1. in
  let m2 = Graph.Builder.add_message b ~src:a ~dst:c ~size:2. in
  let m3 = Graph.Builder.add_message b ~src:b1 ~dst:d ~size:3. in
  let m4 = Graph.Builder.add_message b ~src:c ~dst:d ~size:4. in
  (Graph.Builder.build b, (a, b1, c, d), (m1, m2, m3, m4))

let test_graph_structure () =
  let g, (a, b, c, d), _ = diamond () in
  Alcotest.(check int) "processes" 4 (Graph.process_count g);
  Alcotest.(check int) "messages" 4 (Graph.message_count g);
  Alcotest.(check (list int)) "sources" [ a ] (Graph.sources g);
  Alcotest.(check (list int)) "sinks" [ d ] (Graph.sinks g);
  Alcotest.(check (list int)) "succ a" [ b; c ] (Graph.successors g a);
  Alcotest.(check (list int)) "pred d" [ b; c ] (Graph.predecessors g d);
  Alcotest.(check (list int)) "out a" [ 0; 1 ] (Graph.out_messages g a);
  Alcotest.(check (list int)) "in d" [ 2; 3 ] (Graph.in_messages g d)

let test_graph_topo_and_depth () =
  let g, (a, _, _, d), _ = diamond () in
  let topo = Graph.topological_order g in
  Alcotest.(check int) "first" a (List.nth topo 0);
  Alcotest.(check int) "last" d (List.nth topo 3);
  let depth = Graph.depth g in
  Alcotest.(check int) "depth a" 0 depth.(a);
  Alcotest.(check int) "depth d" 2 depth.(d)

let test_graph_critical_path () =
  let g, _, _ = diamond () in
  (* proc cost 10 each, msg cost = size: A(10) m2(2) C(10) m4(4) D(10) = 36. *)
  Helpers.check_float "cpl" 36.
    (Graph.critical_path_length g ~proc_time:(fun _ -> 10.)
       ~msg_time:(fun mid -> (Graph.message g mid).Graph.size))

let test_graph_cycle_detection () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_process b ~name:"A" in
  let c = Graph.Builder.add_process b ~name:"B" in
  ignore (Graph.Builder.add_message b ~src:a ~dst:c ~size:1.);
  ignore (Graph.Builder.add_message b ~src:c ~dst:a ~size:1.);
  Alcotest.check_raises "cycle"
    (Invalid_argument "Graph.Builder.build: application graph has a cycle")
    (fun () -> ignore (Graph.Builder.build b))

let test_graph_builder_errors () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_process b ~name:"A" in
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph.Builder.add_message: self-loop") (fun () ->
      ignore (Graph.Builder.add_message b ~src:a ~dst:a ~size:1.));
  Alcotest.check_raises "unknown endpoint"
    (Invalid_argument "Graph.Builder.add_message: unknown endpoint") (fun () ->
      ignore (Graph.Builder.add_message b ~src:a ~dst:7 ~size:1.));
  let c = Graph.Builder.add_process b ~name:"B" in
  Alcotest.check_raises "negative size"
    (Invalid_argument "Graph.Builder.add_message: negative size") (fun () ->
      ignore (Graph.Builder.add_message b ~src:a ~dst:c ~size:(-1.)))

let test_graph_restrict () =
  let g, (a, b, c, d), _ = diamond () in
  (* Keep A, C, D: edges A->C and C->D survive, B's edges vanish. *)
  let sub, map = Graph.restrict g ~keep:(fun pid -> pid <> b) in
  Alcotest.(check int) "3 processes" 3 (Graph.process_count sub);
  Alcotest.(check int) "2 messages" 2 (Graph.message_count sub);
  Alcotest.(check int) "dropped marker" (-1) map.(b);
  Alcotest.(check string) "names preserved" "C"
    (Graph.process sub map.(c)).Graph.pname;
  Alcotest.(check (list int)) "A -> C" [ map.(c) ]
    (Graph.successors sub map.(a));
  Alcotest.(check (list int)) "C -> D" [ map.(d) ]
    (Graph.successors sub map.(c));
  (* Degenerate cases. *)
  let empty, _ = Graph.restrict g ~keep:(fun _ -> false) in
  Alcotest.(check int) "empty" 0 (Graph.process_count empty);
  let full, full_map = Graph.restrict g ~keep:(fun _ -> true) in
  Alcotest.(check int) "identity procs" 4 (Graph.process_count full);
  Alcotest.(check int) "identity msgs" 4 (Graph.message_count full);
  Array.iteri (fun i m -> Alcotest.(check int) "identity map" i m) full_map

let test_graph_find_process () =
  let g, (_, b, _, _), _ = diamond () in
  Alcotest.(check (option int)) "found" (Some b) (Graph.find_process g "B");
  Alcotest.(check (option int)) "missing" None (Graph.find_process g "Z")

let graph_props =
  [
    Helpers.qtest ~count:100 "topological order respects edges"
      Helpers.arbitrary_graph
      (fun input ->
        let g = Helpers.graph_of input in
        let pos = Array.make (Graph.process_count g) 0 in
        List.iteri (fun i pid -> pos.(pid) <- i) (Graph.topological_order g);
        Array.for_all
          (fun (m : Graph.message) -> pos.(m.Graph.src) < pos.(m.Graph.dst))
          (Graph.messages g));
    Helpers.qtest ~count:100 "sources have no preds, sinks no succs"
      Helpers.arbitrary_graph
      (fun input ->
        let g = Helpers.graph_of input in
        List.for_all (fun pid -> Graph.predecessors g pid = []) (Graph.sources g)
        && List.for_all (fun pid -> Graph.successors g pid = []) (Graph.sinks g));
    Helpers.qtest ~count:100 "critical path bounded by total work"
      Helpers.arbitrary_graph
      (fun input ->
        let g = Helpers.graph_of input in
        let cpl =
          Graph.critical_path_length g ~proc_time:(fun _ -> 1.)
            ~msg_time:(fun _ -> 0.)
        in
        cpl >= 1. && cpl <= float_of_int (Graph.process_count g));
  ]

(* ------------------------------------------------------------------ *)
(* Transparency                                                        *)
(* ------------------------------------------------------------------ *)

let test_transparency_basics () =
  let g, (a, _, _, _), _ = diamond () in
  let t = Transparency.none in
  Alcotest.(check bool) "none" false (Transparency.is_frozen_proc t a);
  let t = Transparency.freeze t (Transparency.Proc a) in
  Alcotest.(check bool) "frozen" true (Transparency.is_frozen_proc t a);
  let t = Transparency.thaw t (Transparency.Proc a) in
  Alcotest.(check bool) "thawed" false (Transparency.is_frozen_proc t a);
  Alcotest.(check int) "all" 8 (Transparency.cardinal (Transparency.all g));
  Alcotest.(check int) "all messages" 4
    (Transparency.cardinal (Transparency.all_messages g))

(* The set's order — processes before messages, then by id — is what
   [frozen_objects] and [pp] expose; pin both against an insertion
   order that is neither. *)
let test_transparency_order () =
  let g, (a, b, c, d), (m1, m2, _, m4) = diamond () in
  let t =
    Transparency.of_list
      Transparency.
        [ Msg m4; Proc c; Msg m1; Proc d; Proc a; Msg m2; Proc b; Msg m1 ]
  in
  Alcotest.(check bool) "frozen_objects order" true
    (Transparency.frozen_objects t
    = Transparency.
        [ Proc a; Proc b; Proc c; Proc d; Msg m1; Msg m2; Msg m4 ]);
  Alcotest.(check string) "pp order" "frozen{A, B, C, D, m1, m2, m4}"
    (Format.asprintf "%a" (Transparency.pp g) t);
  Alcotest.(check string) "pp all" "frozen{A, B, C, D, m1, m2, m3, m4}"
    (Format.asprintf "%a" (Transparency.pp g) (Transparency.all g));
  Alcotest.(check bool) "thaw keeps the rest in order" true
    (Transparency.frozen_objects (Transparency.thaw t (Transparency.Proc b))
    = Transparency.[ Proc a; Proc c; Proc d; Msg m1; Msg m2; Msg m4 ])

(* ------------------------------------------------------------------ *)
(* App and Merge                                                       *)
(* ------------------------------------------------------------------ *)

let test_app_validation () =
  let g, _, _ = diamond () in
  Alcotest.check_raises "deadline > period"
    (Invalid_argument "App.make: deadline > period") (fun () ->
      ignore (App.make ~graph:g ~deadline:10. ~period:5. ()));
  Alcotest.check_raises "bad deadline"
    (Invalid_argument "App.make: deadline <= 0") (fun () ->
      ignore (App.make ~graph:g ~deadline:0. ~period:5. ()))

let test_app_fig3 () =
  let app = App.fig3 () in
  Alcotest.(check int) "5 processes" 5
    (Graph.process_count app.App.graph);
  Alcotest.(check int) "4 messages" 4 (Graph.message_count app.App.graph)

let test_app_fig5 () =
  let app = App.fig5 () in
  let g = app.App.graph in
  Alcotest.(check int) "4 processes" 4 (Graph.process_count g);
  Alcotest.(check int) "frozen objects" 3
    (Transparency.cardinal app.App.transparency);
  let p3 = Option.get (Graph.find_process g "P3") in
  Alcotest.(check bool) "P3 frozen" true
    (Transparency.is_frozen_proc app.App.transparency p3)

let test_merge_hyperperiod () =
  Helpers.check_float "lcm" 600. (Merge.hyperperiod [ 200.; 300. ]);
  Alcotest.check_raises "non-integral"
    (Invalid_argument "Merge: period must be a positive whole number")
    (fun () -> ignore (Merge.hyperperiod [ 1.5 ]))

let simple_source ~period ~deadline =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_process b ~name:"S" in
  let c = Graph.Builder.add_process b ~name:"T" in
  let m = Graph.Builder.add_message b ~src:a ~dst:c ~size:1. in
  {
    Merge.graph = Graph.Builder.build b;
    period;
    deadline;
    transparency = Transparency.of_list [ Transparency.Msg m ];
  }

let test_merge_instances () =
  let merged =
    Merge.merge
      [ simple_source ~period:600. ~deadline:500.;
        simple_source ~period:300. ~deadline:250. ]
  in
  let g = merged.App.graph in
  (* 2 + 2*2 processes, 1 + 2 messages. *)
  Alcotest.(check int) "processes" 6 (Graph.process_count g);
  Alcotest.(check int) "messages" 3 (Graph.message_count g);
  Helpers.check_float "period = hyperperiod" 600. merged.App.period;
  (* Second instance released one period in. *)
  let s1 = Option.get (Graph.find_process g "S@1") in
  Helpers.check_float "release of instance 1" 300.
    (Graph.process g s1).Graph.release;
  (* Sinks carry the instance deadline. *)
  let t1 = Option.get (Graph.find_process g "T@1") in
  Alcotest.(check (option (Helpers.approx ())))
    "local deadline" (Some 550.)
    (Graph.process g t1).Graph.local_deadline;
  (* Frozen messages carry over to every instance. *)
  Alcotest.(check int) "frozen msgs" 3
    (Transparency.cardinal merged.App.transparency)

let test_merge_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Merge.merge: no applications")
    (fun () -> ignore (Merge.merge []));
  Alcotest.check_raises "bad deadline"
    (Invalid_argument "Merge.merge: deadline must be in (0, period]") (fun () ->
      ignore (Merge.merge [ simple_source ~period:100. ~deadline:200. ]))

let () =
  Alcotest.run "appmodel"
    [
      ( "overheads",
        [
          Alcotest.test_case "make" `Quick test_overheads_make;
          Alcotest.test_case "fig1" `Quick test_overheads_fig1;
          Alcotest.test_case "scale" `Quick test_overheads_scale;
        ] );
      ( "fttime",
        [
          Alcotest.test_case "fig1 no-fault" `Quick test_fig1_no_fault;
          Alcotest.test_case "fig1 worst case (130 ms)" `Quick
            test_fig1_worst_case;
          Alcotest.test_case "segments and recovery" `Quick
            test_segment_and_recovery;
          Alcotest.test_case "recovery slack" `Quick test_recovery_slack;
          Alcotest.test_case "replica length" `Quick test_replica_length;
          Alcotest.test_case "errors" `Quick test_fttime_errors;
        ]
        @ fttime_props );
      ( "policy",
        [
          Alcotest.test_case "checkpointing" `Quick test_policy_checkpointing;
          Alcotest.test_case "replication" `Quick test_policy_replication;
          Alcotest.test_case "combined (Fig. 4c)" `Quick
            test_policy_combined_fig4c;
          Alcotest.test_case "with_checkpoints" `Quick
            test_policy_with_checkpoints;
          Alcotest.test_case "errors" `Quick test_policy_errors;
        ] );
      ( "graph",
        [
          Alcotest.test_case "structure" `Quick test_graph_structure;
          Alcotest.test_case "topo and depth" `Quick test_graph_topo_and_depth;
          Alcotest.test_case "critical path" `Quick test_graph_critical_path;
          Alcotest.test_case "cycle detection" `Quick test_graph_cycle_detection;
          Alcotest.test_case "builder errors" `Quick test_graph_builder_errors;
          Alcotest.test_case "restrict" `Quick test_graph_restrict;
          Alcotest.test_case "find process" `Quick test_graph_find_process;
        ]
        @ graph_props );
      ( "transparency",
        [
          Alcotest.test_case "basics" `Quick test_transparency_basics;
          Alcotest.test_case "order" `Quick test_transparency_order;
        ] );
      ( "app+merge",
        [
          Alcotest.test_case "app validation" `Quick test_app_validation;
          Alcotest.test_case "fig3" `Quick test_app_fig3;
          Alcotest.test_case "fig5" `Quick test_app_fig5;
          Alcotest.test_case "hyperperiod" `Quick test_merge_hyperperiod;
          Alcotest.test_case "merge instances" `Quick test_merge_instances;
          Alcotest.test_case "merge errors" `Quick test_merge_errors;
        ] );
    ]
