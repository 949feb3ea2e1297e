(* Tests for the fault-injection simulator — including negative tests
   that corrupt a valid schedule table and check that each class of
   violation is detected. *)

module Sim = Ftes_sim.Sim
module Violation = Ftes_sim.Violation
module Diagnose = Ftes_sim.Diagnose
module Table = Ftes_sched.Table
module Conditional = Ftes_sched.Conditional
module Ftcpg = Ftes_ftcpg.Ftcpg
module Cond = Ftes_ftcpg.Cond

let fig5_table () = Conditional.schedule (Ftcpg.build (Helpers.fig5_problem ()))

let test_fig5_validates () =
  Alcotest.(check (list string)) "no violations" []
    (List.map Violation.to_string (Sim.validate (fig5_table ())))

let test_run_no_fault () =
  let t = fig5_table () in
  let scenario =
    List.find
      (fun s -> Cond.fault_count s = 0)
      (Sim_oracle.scenarios t.Table.ftcpg)
  in
  let o = Sim.run t ~scenario in
  Alcotest.(check (list string)) "clean" []
    (List.map Violation.to_string o.Sim.violations);
  Helpers.check_float "makespan = fault-free length" (Table.no_fault_length t)
    o.Sim.makespan;
  Alcotest.(check bool) "has events" true (o.Sim.events <> [])

let test_run_worst_fault () =
  let t = fig5_table () in
  let scenarios = Sim_oracle.scenarios t.Table.ftcpg in
  let worst =
    List.fold_left
      (fun acc s -> max acc (Sim.run t ~scenario:s).Sim.makespan)
      0. scenarios
  in
  Helpers.check_float "worst = schedule length" (Table.schedule_length t) worst

(* Corruptions: rebuild the table with one entry modified and check the
   simulator catches the resulting inconsistency. *)
let corrupt t ~f =
  let entries = List.map f t.Table.entries in
  Table.make ~ftcpg:t.Table.ftcpg ~entries ~tracks:t.Table.tracks

let test_detects_causality_violation () =
  let t = fig5_table () in
  (* Pull some dependent entry to time 0: its predecessors cannot have
     finished. *)
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
  let bad =
    corrupt t ~f:(fun e ->
        if e == victim then
          { e with Table.start = 0.; finish = e.Table.finish -. e.Table.start }
        else e)
  in
  Alcotest.(check bool) "caught" true (Sim.validate bad <> [])

let test_detects_missing_activation () =
  let t = fig5_table () in
  (* Drop every entry of one vertex. *)
  let dropped_vid =
    List.find_map
      (fun e ->
        match e.Table.item with Table.Exec vid -> Some vid | _ -> None)
      (List.rev t.Table.entries)
  in
  let dropped_vid = Option.get dropped_vid in
  let entries =
    List.filter (fun e -> e.Table.item <> Table.Exec dropped_vid) t.Table.entries
  in
  let bad = Table.make ~ftcpg:t.Table.ftcpg ~entries ~tracks:t.Table.tracks in
  Alcotest.(check bool) "caught" true
    (List.exists
       (fun v ->
         Astring_contains.contains v "no applicable activation")
       (List.map Violation.to_string (Sim.validate bad)));
  Alcotest.(check bool) "typed kind" true
    (List.exists
       (fun v -> Violation.kind_label v = "missing-activation")
       (Sim.validate bad))

let test_detects_overlap () =
  let t = fig5_table () in
  (* Shift one long N1 execution onto another. *)
  let on_n1 =
    List.filter
      (fun e ->
        e.Table.resource = Table.Node 0
        && e.Table.finish -. e.Table.start > 1.)
      t.Table.entries
  in
  match on_n1 with
  | a :: b :: _ ->
      let bad =
        corrupt t ~f:(fun e ->
            if e == b then
              {
                e with
                Table.start = a.Table.start;
                finish = a.Table.start +. (e.Table.finish -. e.Table.start);
              }
            else e)
      in
      Alcotest.(check bool) "caught" true (Sim.validate bad <> [])
  | _ -> Alcotest.fail "expected two N1 entries"

let test_detects_frozen_violation () =
  let t = fig5_table () in
  let f = t.Table.ftcpg in
  let frozen_vid =
    Array.to_list (Ftcpg.vertices f)
    |> List.find_map (fun v ->
           if v.Ftcpg.frozen && v.Ftcpg.duration > 0. then Some v.Ftcpg.vid
           else None)
  in
  let frozen_vid = Option.get frozen_vid in
  (* Duplicate its entry at a different time under a refined guard. *)
  let entry = List.find (fun e -> e.Table.item = Table.Exec frozen_vid) t.Table.entries in
  let shifted = { entry with Table.start = entry.Table.start +. 7.;
                  finish = entry.Table.finish +. 7. } in
  let bad =
    Table.make ~ftcpg:f ~entries:(shifted :: t.Table.entries)
      ~tracks:t.Table.tracks
  in
  Alcotest.(check bool) "caught" true
    (Sim.frozen_start_violations bad <> [])

let test_detects_deadline_miss () =
  let t = fig5_table () in
  let p = Ftcpg.problem t.Table.ftcpg in
  let tight =
    Ftes_ftcpg.Problem.make
      ~app:(Ftes_app.App.with_deadline p.Ftes_ftcpg.Problem.app 100.)
      ~arch:p.Ftes_ftcpg.Problem.arch ~wcet:p.Ftes_ftcpg.Problem.wcet ~k:2
      ~policies:p.Ftes_ftcpg.Problem.policies
      ~mapping:p.Ftes_ftcpg.Problem.mapping
  in
  let t_tight = Conditional.schedule (Ftcpg.build tight) in
  Alcotest.(check bool) "deadline miss caught" true
    (List.exists
       (fun v -> Astring_contains.contains v "deadline")
       (List.map Violation.to_string (Sim.validate t_tight)))

let test_validate_sampled () =
  let t = fig5_table () in
  let rng = Ftes_util.Rng.create 1 in
  Alcotest.(check (list string)) "sampled clean" []
    (List.map Violation.to_string (Sim.validate_sampled ~rng ~samples:5 t))

(* Fig. 5 rescheduled under a deadline below its fault-free completion:
   every scenario (including the nominal one) misses the deadline, which
   makes the sampled validator's guarantees observable. *)
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

let test_sampled_includes_fault_free () =
  let t = tight_fig5_table () in
  (* Zero samples: only the always-included fault-free scenario is
     replayed, and it must report the nominal deadline miss. *)
  let sampled =
    List.map Violation.to_string
      (Sim.validate_sampled ~rng:(Ftes_util.Rng.create 7) ~samples:0 t)
  in
  Alcotest.(check bool) "fault-free deadline miss reported" true
    (List.exists (fun v -> Astring_contains.contains v "deadline") sampled)

let test_sampled_subset_of_exhaustive () =
  let t = tight_fig5_table () in
  let exhaustive = Sim.validate t in
  Alcotest.(check bool) "exhaustive violations exist" true (exhaustive <> []);
  List.iter
    (fun seed ->
      let rng = Ftes_util.Rng.create seed in
      let sampled = Sim.validate_sampled ~rng ~samples:3 t in
      Alcotest.(check bool)
        (Printf.sprintf "rng seed %d reports a subset" seed)
        true
        (List.for_all (fun v -> List.mem v exhaustive) sampled))
    [ 1; 2; 3; 4; 5 ]

(* Regression: a second broadcast column with the same guard but a
   different time must be flagged as ambiguous, exactly like the
   execution-column check (it used to slip through: broadcasts are
   invisible to the resource-overlap check, and a later duplicate does
   not precede production). *)
let test_detects_bcast_ambiguity () =
  let t = fig5_table () in
  let bcast =
    List.find_opt
      (fun e ->
        match e.Table.item with Table.Bcast _ -> true | Table.Exec _ -> false)
      t.Table.entries
  in
  match bcast with
  | None -> Alcotest.fail "fig5 table has no broadcast entry"
  | Some b ->
      let dup =
        { b with Table.start = b.Table.start +. 5.;
          finish = b.Table.finish +. 5. }
      in
      let bad =
        Table.make ~ftcpg:t.Table.ftcpg ~entries:(dup :: t.Table.entries)
          ~tracks:t.Table.tracks
      in
      let vs = Sim.validate bad in
      Alcotest.(check bool) "ambiguous broadcast caught" true
        (List.exists
           (fun v -> Violation.kind_label v = "ambiguous-broadcast")
           vs);
      Alcotest.(check bool) "message mentions ambiguous broadcasts" true
        (List.exists
           (fun m -> Astring_contains.contains m "ambiguous broadcasts")
           (List.map Violation.to_string vs))

(* The typed layer must render the historical strings byte for byte. *)
let test_deadline_message_byte_identical () =
  let t = tight_fig5_table () in
  let f = t.Table.ftcpg in
  let scenario =
    List.find (fun s -> Cond.fault_count s = 0) (Sim_oracle.scenarios f)
  in
  let o = Sim.run t ~scenario in
  let deadline =
    (Ftcpg.problem f).Ftes_ftcpg.Problem.app.Ftes_app.App.deadline
  in
  let expected =
    Printf.sprintf "deadline %g missed: completion %g in %s" deadline
      o.Sim.makespan
      (Cond.to_string ~name:(Ftcpg.cond_name f) scenario)
  in
  Alcotest.(check bool)
    (Printf.sprintf "pinned rendering %S" expected)
    true
    (List.mem expected (List.map Violation.to_string o.Sim.violations))

let test_frozen_message_byte_identical () =
  let t = fig5_table () in
  let f = t.Table.ftcpg in
  let frozen_vid =
    Array.to_list (Ftcpg.vertices f)
    |> List.find_map (fun v ->
           if v.Ftcpg.frozen && v.Ftcpg.duration > 0. then Some v.Ftcpg.vid
           else None)
    |> Option.get
  in
  let entry =
    List.find (fun e -> e.Table.item = Table.Exec frozen_vid) t.Table.entries
  in
  let shifted = { entry with Table.start = entry.Table.start +. 7.;
                  finish = entry.Table.finish +. 7. } in
  let bad =
    Table.make ~ftcpg:f ~entries:(shifted :: t.Table.entries)
      ~tracks:t.Table.tracks
  in
  let expected =
    Format.asprintf "frozen vertex %s has several start times: %a"
      (Ftcpg.vertex f frozen_vid).Ftcpg.name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Format.pp_print_float)
      (Table.starts_of_vertex bad frozen_vid)
  in
  Alcotest.(check bool)
    (Printf.sprintf "pinned rendering %S" expected)
    true
    (List.mem expected
       (List.map Violation.to_string (Sim.frozen_start_violations bad)))

let test_violation_json () =
  let t = tight_fig5_table () in
  match Sim.validate t with
  | [] -> Alcotest.fail "tight table should fail validation"
  | v :: _ as vs ->
      let j = Violation.to_json v in
      Alcotest.(check bool) "json has kind" true
        (Astring_contains.contains j
           (Printf.sprintf "\"kind\": \"%s\"" (Violation.kind_label v)));
      Alcotest.(check bool) "json has message" true
        (Astring_contains.contains j "\"message\": ");
      let arr = Violation.list_to_json vs in
      Alcotest.(check bool) "array brackets" true
        (String.length arr >= 2 && arr.[0] = '[' && arr.[String.length arr - 1] = ']')

(* --- Counterexample shrinking ------------------------------------- *)

let test_shrink_minimizes () =
  let t = tight_fig5_table () in
  let scenario =
    (* A maximal-fault scenario: plenty of literals to drop. *)
    List.fold_left
      (fun acc s ->
        if Cond.fault_count s > Cond.fault_count acc then s else acc)
      (List.hd (Sim_oracle.scenarios t.Table.ftcpg))
      (Sim_oracle.scenarios t.Table.ftcpg)
  in
  Alcotest.(check bool) "scenario fails to begin with" true
    ((Sim.run t ~scenario).Sim.violations <> []);
  let shrunk = Diagnose.shrink t ~scenario in
  Alcotest.(check bool) "shrunk still fails" true
    ((Sim.run t ~scenario:shrunk).Sim.violations <> []);
  Alcotest.(check bool) "fault count did not grow" true
    (Cond.fault_count shrunk <= Cond.fault_count scenario);
  Alcotest.(check bool) "literals are a subset" true
    (List.for_all
       (fun l -> List.mem l (Cond.literals scenario))
       (Cond.literals shrunk))

let test_shrink_keeps_passing_scenario () =
  let t = fig5_table () in
  let scenario = List.hd (Sim_oracle.scenarios t.Table.ftcpg) in
  Alcotest.(check bool) "unchanged when not failing" true
    (Cond.equal scenario (Diagnose.shrink t ~scenario))

let test_diagnose_report () =
  let t = tight_fig5_table () in
  let r = Diagnose.report t in
  Alcotest.(check int) "total = exhaustive count"
    (List.length (Sim.validate t))
    r.Diagnose.total;
  Alcotest.(check bool) "has groups" true (r.Diagnose.groups <> []);
  Alcotest.(check int) "group counts sum to total" r.Diagnose.total
    (List.fold_left (fun acc g -> acc + g.Diagnose.count) 0 r.Diagnose.groups);
  List.iter
    (fun g ->
      Alcotest.(check string) "example matches group kind" g.Diagnose.kind
        (Violation.kind_label g.Diagnose.example);
      match (g.Diagnose.shrunk, g.Diagnose.example.Violation.scenario) with
      | Some shrunk, Some original ->
          Alcotest.(check bool) "shrunk still fails" true
            ((Sim.run t ~scenario:shrunk).Sim.violations <> []);
          Alcotest.(check bool) "shrunk fault count <= original" true
            (Cond.fault_count shrunk <= Cond.fault_count original)
      | _ -> ())
    r.Diagnose.groups;
  (* The human-readable rendering must at least mention every group. *)
  let rendered = Format.asprintf "%a" Diagnose.pp_report r in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "report mentions %s" g.Diagnose.kind)
        true
        (Astring_contains.contains rendered g.Diagnose.kind))
    r.Diagnose.groups

(* Fuzz: random mixed-policy instances must always validate. *)
let sim_props =
  let arb =
    QCheck.make
      ~print:(fun (seed, n, k) -> Printf.sprintf "seed=%d n=%d k=%d" seed n k)
      QCheck.Gen.(triple (int_bound 10_000) (int_range 3 10) (int_range 1 2))
  in
  [
    Helpers.qtest ~count:50 "synthesized tables always validate" arb
      (fun (seed, n, k) ->
        let p = Helpers.random_problem ~processes:n ~nodes:2 ~k ~seed () in
        let t = Conditional.schedule (Ftcpg.build p) in
        Sim.validate t = []);
    Helpers.qtest ~count:30 "three-node instances validate too" arb
      (fun (seed, n, k) ->
        let p = Helpers.random_problem ~processes:n ~nodes:3 ~k ~seed () in
        let t = Conditional.schedule (Ftcpg.build p) in
        Sim.validate t = []);
  ]

let () =
  Alcotest.run "sim"
    [
      ( "positive",
        [
          Alcotest.test_case "fig5 validates" `Quick test_fig5_validates;
          Alcotest.test_case "fault-free run" `Quick test_run_no_fault;
          Alcotest.test_case "worst fault run" `Quick test_run_worst_fault;
          Alcotest.test_case "sampled validation" `Quick test_validate_sampled;
        ] );
      ( "sampled",
        [
          Alcotest.test_case "includes fault-free scenario" `Quick
            test_sampled_includes_fault_free;
          Alcotest.test_case "subset of exhaustive" `Quick
            test_sampled_subset_of_exhaustive;
        ] );
      ( "negative",
        [
          Alcotest.test_case "causality violation" `Quick
            test_detects_causality_violation;
          Alcotest.test_case "missing activation" `Quick
            test_detects_missing_activation;
          Alcotest.test_case "resource overlap" `Quick test_detects_overlap;
          Alcotest.test_case "frozen violation" `Quick
            test_detects_frozen_violation;
          Alcotest.test_case "deadline miss" `Quick test_detects_deadline_miss;
          Alcotest.test_case "broadcast ambiguity" `Quick
            test_detects_bcast_ambiguity;
        ] );
      ( "messages",
        [
          Alcotest.test_case "deadline rendering pinned" `Quick
            test_deadline_message_byte_identical;
          Alcotest.test_case "frozen rendering pinned" `Quick
            test_frozen_message_byte_identical;
          Alcotest.test_case "json rendering" `Quick test_violation_json;
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "shrink keeps passing scenario" `Quick
            test_shrink_keeps_passing_scenario;
          Alcotest.test_case "grouped report" `Quick test_diagnose_report;
        ] );
      ("fuzz", sim_props);
    ];
  Ftes_util.Par.shutdown ()
