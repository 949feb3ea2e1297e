(* Equivalence tests for the packed/compiled validation pipeline.

   [Sim.validate] replays packed condition vectors from a flat scenario
   arena against a pre-compiled table; [Sim_oracle.validate] is the
   retained explicit-list path. These tests pin the two byte-identical —
   violation values, order and rendered messages — across clean,
   corrupted and corpus instances, for jobs 1 and 4, plus the packed
   [Condvec] primitives against their [Cond] list counterparts. *)

module Sim = Ftes_sim.Sim
module Violation = Ftes_sim.Violation
module Table = Ftes_sched.Table
module Conditional = Ftes_sched.Conditional
module Ftcpg = Ftes_ftcpg.Ftcpg
module Cond = Ftes_ftcpg.Cond
module Condvec = Ftes_ftcpg.Condvec
module Rng = Ftes_util.Rng

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

(* The core check: packed validation must reproduce the explicit oracle
   bit for bit — structurally and through the string renderings — for a
   sequential and a parallel pool size. *)
let check_equivalent name t =
  let reference = Sim_oracle.validate ~jobs:1 t in
  List.iter
    (fun jobs ->
      let packed = Sim.validate ~jobs t in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: messages (jobs=%d)" name jobs)
        (List.map Violation.to_string reference)
        (List.map Violation.to_string packed);
      Alcotest.(check bool)
        (Printf.sprintf "%s: structural equality (jobs=%d)" name jobs)
        true (packed = reference))
    [ 1; 4 ]

let test_clean_table_equivalent () = check_equivalent "fig5" (fig5_table ())

let test_tight_table_equivalent () =
  let t = tight_fig5_table () in
  Alcotest.(check bool) "tight table does violate" true (Sim.validate t <> []);
  check_equivalent "tight-fig5" t

(* Three corruptions of the fig5 table: a causality break, a dropped
   activation and an ambiguous duplicated broadcast. *)
let corrupted_tables () =
  let t = fig5_table () in
  (* Causality: pull a dependent entry to time 0. *)
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
  (* Missing activation: drop every entry of one vertex. *)
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
  (* Ambiguous broadcast: duplicate a broadcast column at another time. *)
  let b =
    match
      List.find_opt
        (fun e ->
          match e.Table.item with
          | Table.Bcast _ -> true
          | Table.Exec _ -> false)
        t.Table.entries
    with
    | None -> Alcotest.fail "fig5 table has no broadcast entry"
    | Some b -> b
  in
  let dup =
    { b with Table.start = b.Table.start +. 5.; finish = b.Table.finish +. 5. }
  in
  let bcast_bad =
    Table.make ~ftcpg:t.Table.ftcpg ~entries:(dup :: t.Table.entries)
      ~tracks:t.Table.tracks
  in
  [
    ("causality-corrupted", causality_bad);
    ("missing-activation", missing_bad);
    ("ambiguous-broadcast", bcast_bad);
  ]

let test_corrupted_tables_equivalent () =
  List.iter (fun (name, t) -> check_equivalent name t) (corrupted_tables ())

let test_random_instances_equivalent () =
  List.iter
    (fun (seed, processes, nodes, k) ->
      let p = Helpers.random_problem ~processes ~nodes ~k ~seed () in
      let t = Conditional.schedule (Ftcpg.build p) in
      check_equivalent
        (Printf.sprintf "random seed=%d n=%d k=%d" seed processes k)
        t)
    [ (3, 6, 2, 2); (11, 8, 2, 3); (29, 7, 3, 2) ]

(* Corpus smoke instances through the same equivalence harness: the
   generated exhaustive ones pin the packed path on realistic tables. *)
let test_corpus_smoke_equivalent () =
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
        check_equivalent inst.I.id t)
    instances

(* --- single-scenario replay ------------------------------------------ *)

(* [Sim.run] replays one row of a packed space through the compiled
   table; the reference walks the entry list. Both must agree on every
   complete scenario and on every scenario with one literal dropped
   (the partial guards [Diagnose.shrink] replays): violations
   structurally, makespan and the trace, including the order of events
   with equal times. *)
let check_run_equivalent name t =
  let complete = Sim_oracle.scenarios t.Table.ftcpg in
  let dropped s =
    let lits = Cond.literals s in
    List.filter_map
      (fun l -> Cond.of_literals (List.filter (fun l' -> l' <> l) lits))
      lits
  in
  List.iteri
    (fun i scenario ->
      let expected = Sim_oracle.run t ~scenario in
      let got = Sim.run t ~scenario in
      let what = Printf.sprintf "%s: scenario %d" name i in
      Alcotest.(check bool) (what ^ " violations") true
        (got.Sim.violations = expected.Sim.violations);
      Alcotest.(check (float 0.)) (what ^ " makespan") expected.Sim.makespan
        got.Sim.makespan;
      Alcotest.(check bool) (what ^ " events") true
        (got.Sim.events = expected.Sim.events);
      Alcotest.(check bool) (what ^ " scenario") true
        (Cond.equal got.Sim.scenario scenario))
    (complete @ List.concat_map dropped complete)

let test_run_matches_oracle () =
  List.iter
    (fun (name, t) -> check_run_equivalent name t)
    ([ ("fig5", fig5_table ()); ("tight-fig5", tight_fig5_table ()) ]
    @ corrupted_tables ()
    @ List.map
        (fun (seed, processes, nodes, k) ->
          ( Printf.sprintf "random seed=%d" seed,
            Conditional.schedule
              (Ftcpg.build
                 (Helpers.random_problem ~processes ~nodes ~k ~seed ())) ))
        [ (3, 6, 2, 2); (7, 5, 1, 2); (29, 7, 3, 1) ])

(* The counterexample report with every shrink driven by the reference
   simulator instead of the compiled replay. Every scenario of the
   table is also shrunk both ways. *)
let oracle_report table =
  let r = Ftes_sim.Diagnose.report ~jobs:1 table in
  let name = Ftcpg.cond_name table.Table.ftcpg in
  {
    r with
    Ftes_sim.Diagnose.groups =
      List.map
        (fun (g : Ftes_sim.Diagnose.group) ->
          match g.Ftes_sim.Diagnose.shrunk with
          | None -> g
          | Some _ ->
              let shrunk =
                Option.map
                  (fun scenario -> Sim_oracle.shrink table ~scenario)
                  g.Ftes_sim.Diagnose.example.Violation.scenario
              in
              {
                g with
                Ftes_sim.Diagnose.shrunk;
                shrunk_label = Option.map (Cond.to_string ~name) shrunk;
              })
        r.Ftes_sim.Diagnose.groups;
  }

let test_report_matches_oracle () =
  List.iter
    (fun (name, t) ->
      let r = Ftes_sim.Diagnose.report ~jobs:1 t in
      Alcotest.(check bool) (name ^ ": has shrunk groups") true
        (List.exists
           (fun g -> g.Ftes_sim.Diagnose.shrunk <> None)
           r.Ftes_sim.Diagnose.groups);
      Alcotest.(check string) (name ^ ": report json")
        (Ftes_sim.Diagnose.report_to_json (oracle_report t))
        (Ftes_sim.Diagnose.report_to_json r);
      List.iteri
        (fun i scenario ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: shrink of scenario %d" name i)
            true
            (Cond.equal
               (Sim_oracle.shrink t ~scenario)
               (Ftes_sim.Diagnose.shrink t ~scenario)))
        (Sim_oracle.scenarios t.Table.ftcpg))
    (("tight-fig5", tight_fig5_table ()) :: corrupted_tables ())

(* --- guard-indexed replay and its scratch --------------------------- *)

module Compiled = Ftes_sim.Compiled

(* A clean generated k=4 table with about 1,000 scenarios, the size
   perfbench's verify-tables validates. *)
let clean_k4_table () =
  let spec =
    { Ftes_workload.Gen.default with seed = 100; processes = 10; nodes = 2 }
  in
  Conditional.schedule ~jobs:1 (Ftcpg.build (Ftes_workload.Gen.problem ~k:4 spec))

(* A clean generated k=4 table with 0.3 of its processes and messages
   frozen: about 20 activation columns per vertex. *)
let frozen_k4_table () =
  let spec =
    {
      Ftes_workload.Gen.default with
      seed = 2;
      processes = 8;
      nodes = 2;
      frozen_proc_prob = 0.3;
      frozen_msg_prob = 0.3;
    }
  in
  Conditional.schedule ~jobs:1 (Ftcpg.build (Ftes_workload.Gen.problem ~k:4 spec))

(* [Gc.minor_words] is exact; [Gc.quick_stat]'s figure only moves at a
   minor collection. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Both tables, the frozen one with more than 15 activation columns per
   vertex; each with its own floor on the scenario count. *)
let test_clean_replay_allocates_nothing () =
  List.iter
    (fun (name, t, min_scenarios, columns_per_vertex) ->
      let sp = Ftcpg.scenario_space t.Table.ftcpg in
      let c = Compiled.compile t sp.Condvec.u in
      let n = Condvec.count sp in
      Alcotest.(check bool)
        (Printf.sprintf "%s: more than %d scenarios (%d)" name min_scenarios n)
        true (n > min_scenarios);
      let columns =
        Array.fold_left (fun acc cols -> acc + Array.length cols) 0 c.Compiled.exec
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: more than %d activation columns per vertex (%d for %d)"
           name columns_per_vertex columns c.Compiled.nverts)
        true
        (columns > columns_per_vertex * c.Compiled.nverts);
      Alcotest.(check int) (name ^ ": clean") 0
        (List.length (Compiled.replay_range c sp 0 n));
      let scr = Compiled.make_scratch c in
      let w =
        words (fun () ->
            for i = 0 to n - 1 do
              ignore (Sys.opaque_identity (Compiled.replay_one c sp i scr))
            done)
      in
      Alcotest.(check (float 0.)) (name ^ ": replay_one over every clean scenario")
        0. w;
      (* The range's own cost (its scratch) does not grow with the range. *)
      let one = words (fun () -> ignore (Compiled.replay_range c sp 0 1)) in
      let all = words (fun () -> ignore (Compiled.replay_range c sp 0 n)) in
      Alcotest.(check (float 0.))
        (name ^ ": replay_range words independent of its length")
        one all)
    [
      ("k4", clean_k4_table (), 500, 4);
      ("frozen-k4", frozen_k4_table (), 400, 15);
    ]

(* [compile] groups the entries by vertex with a counting pass into flat
   arrays and packs no guard, since a column records the trie node its
   guard ends at: 53,363 minor words on this table, against 105,041
   when it packed every guard and 173,042 with per-vertex lists of
   pairs. The bound is that figure plus 10%. *)
let test_compile_words () =
  let t = clean_k4_table () in
  let u = (Ftcpg.scenario_space t.Table.ftcpg).Condvec.u in
  ignore (Compiled.compile t u);
  let w = words (fun () -> ignore (Sys.opaque_identity (Compiled.compile t u))) in
  Alcotest.(check bool)
    (Printf.sprintf "compile allocates %.0f minor words, at most 58,700" w)
    true (w <= 58_700.)

(* Complete scenarios, each with one literal dropped and each with a
   random subset of its literals kept: the partial rows
   [Diagnose.shrink] replays. *)
let replay_rows rng t =
  let complete = Sim_oracle.scenarios t.Table.ftcpg in
  let partial s =
    let lits = Cond.literals s in
    let dropped =
      List.filter_map
        (fun l -> Cond.of_literals (List.filter (fun l' -> l' <> l) lits))
        lits
    in
    let kept = List.filter (fun _ -> Rng.bool rng) lits in
    Option.to_list (Cond.of_literals kept) @ dropped
  in
  complete @ List.concat_map partial complete

let shuffled rng l =
  let a = Array.of_list l in
  Rng.shuffle rng a;
  Array.to_list a

(* Diagnose.shrink and the symbolic backend's witness check replay row
   0 of many one-row spaces with one scratch: it must behave as a fresh
   scratch every time. *)
let test_shared_scratch_matches_fresh () =
  let rng = Rng.create 7 in
  List.iter
    (fun (name, t) ->
      let u = (Ftcpg.scenario_family t.Table.ftcpg).Ftcpg.funiverse in
      let c = Compiled.compile t u in
      let shared = Compiled.make_scratch c in
      List.iteri
        (fun r g ->
          let sp = Condvec.of_guards u [ g ] in
          let fresh = Compiled.make_scratch c in
          let expected = Compiled.replay_one c sp 0 fresh in
          let got = Compiled.replay_one c sp 0 shared in
          let what = Printf.sprintf "%s: row %d" name r in
          Alcotest.(check bool) (what ^ " violations") true (got = expected);
          Alcotest.(check (float 0.)) (what ^ " makespan")
            (Compiled.makespan fresh) (Compiled.makespan shared);
          for vid = 0 to c.Compiled.nverts - 1 do
            if
              Compiled.chosen_exec c shared vid
              <> Compiled.chosen_exec c fresh vid
              || Compiled.chosen_bcast c shared vid
                 <> Compiled.chosen_bcast c fresh vid
            then Alcotest.failf "%s: chosen columns of vertex %d differ" what vid
          done)
        (shuffled rng (replay_rows rng t)))
    ([ ("fig5", fig5_table ()); ("tight-fig5", tight_fig5_table ()) ]
    @ corrupted_tables ())

(* Random damage to a synthesized table: dropped columns (missing
   activations), copies at another time (ambiguities), columns whose
   guard tests a condition outside the scenario universe, generalized
   guards, shifted starts, and columns moved by half of [Compiled.eps]
   or by twice it, either way: the comparison slack's boundary, where
   back-to-back items and a producer's finish meet. *)
let damage rng (t : Table.t) =
  let f = t.Table.ftcpg in
  let outside =
    List.filter
      (fun vid -> not (Ftcpg.vertex f vid).Ftcpg.conditional)
      (List.init (Ftcpg.vertex_count f) Fun.id)
  in
  let entries =
    List.concat_map
      (fun (e : Table.entry) ->
        match Rng.int rng 8 with
        | 0 -> []
        | 1 ->
            [ e; { e with Table.start = e.Table.start +. 3.; finish = e.Table.finish +. 3. } ]
        | 2 -> (
            match outside with
            | [] -> [ e ]
            | _ ->
                let cond = List.nth outside (Rng.int rng (List.length outside)) in
                match Cond.add e.Table.guard { Cond.cond; fault = Rng.bool rng } with
                | Some guard -> [ { e with Table.guard } ]
                | None -> [ e ])
        | 3 -> (
            match Cond.literals e.Table.guard with
            | [] -> [ e ]
            | l :: _ -> [ { e with Table.guard = Cond.remove e.Table.guard l.Cond.cond } ])
        | 4 -> [ { e with Table.start = e.Table.start -. 2. } ]
        | 5 ->
            let eps = Compiled.eps in
            let d = [| eps /. 2.; -.eps /. 2.; 2. *. eps; -2. *. eps |].(Rng.int rng 4) in
            [ { e with Table.start = e.Table.start +. d; finish = e.Table.finish +. d } ]
        | _ -> [ e ])
      t.Table.entries
  in
  Table.make ~ftcpg:f ~entries ~tracks:t.Table.tracks

let test_replay_matches_oracle_on_damaged_tables =
  Helpers.qtest ~count:25 "replay_one = Sim_oracle.run on damaged tables"
    (QCheck.make
       ~print:(fun (seed, p, nodes, k) ->
         Printf.sprintf "seed=%d processes=%d nodes=%d k=%d" seed p nodes k)
       QCheck.Gen.(
         quad (int_bound 10_000) (int_range 3 6) (int_range 1 3) (int_range 1 2)))
    (fun (seed, processes, nodes, k) ->
      let rng = Rng.create seed in
      let t =
        damage rng
          (Conditional.schedule
             (Ftcpg.build (Helpers.random_problem ~processes ~nodes ~k ~seed ())))
      in
      let u = (Ftcpg.scenario_family t.Table.ftcpg).Ftcpg.funiverse in
      let c = Compiled.compile t u in
      let scr = Compiled.make_scratch c in
      List.for_all
        (fun scenario ->
          let expected = Sim_oracle.run t ~scenario in
          let got = Compiled.replay_one c (Condvec.of_guards u [ scenario ]) 0 scr in
          got = expected.Sim.violations
          && Compiled.makespan scr = expected.Sim.makespan)
        (shuffled rng (replay_rows rng t)))

(* Every complete scenario of [t] and each with one literal dropped, as
   one space over the scenario universe. *)
let complete_and_dropped (t : Table.t) =
  let sp = Ftcpg.scenario_space t.Table.ftcpg in
  let complete = List.init (Condvec.count sp) (Condvec.guard_at sp) in
  let dropped s =
    let lits = Cond.literals s in
    List.filter_map
      (fun l -> Cond.of_literals (List.filter (fun l' -> l' <> l) lits))
      lits
  in
  Condvec.of_guards sp.Condvec.u (complete @ List.concat_map dropped complete)

let same_column a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y
  | _ -> false

(* [replay_one] against the full column scan on every row of [sp], in a
   shuffled order through one shared scratch: the missing and ambiguous
   column violations, the chosen activation and broadcast columns and
   the makespan, the latest finish of a chosen activation. *)
let agrees_with_scan rng (t : Table.t) sp =
  let c = Compiled.compile t sp.Condvec.u in
  let g = Scan_replay.pack t sp.Condvec.u in
  let scr = Compiled.make_scratch c in
  let rows = Array.init (Condvec.count sp) Fun.id in
  Rng.shuffle rng rows;
  Array.for_all
    (fun i ->
      let got = Compiled.replay_one c sp i scr in
      let r = Scan_replay.replay c g sp i in
      let column cols j = if j < 0 then None else Some cols.(j) in
      let makespan = ref 0. in
      Array.iteri
        (fun vid j ->
          if j >= 0 then
            makespan := Float.max !makespan c.Compiled.exec.(vid).(j).c_finish)
        r.Scan_replay.chosen;
      List.filter Scan_replay.is_selection got = r.Scan_replay.violations
      && Compiled.makespan scr = !makespan
      && List.for_all
           (fun vid ->
             same_column
               (Compiled.chosen_exec c scr vid)
               (column c.Compiled.exec.(vid) r.Scan_replay.chosen.(vid))
             && same_column
                  (Compiled.chosen_bcast c scr vid)
                  (column c.Compiled.bcast.(vid) r.Scan_replay.bchosen.(vid)))
           (List.init c.Compiled.nverts Fun.id))
    rows

let test_replay_matches_scan =
  Helpers.qtest ~count:30 "replay_one = full column scan, frozen and damaged"
    (QCheck.make
       ~print:(fun (seed, p, k, frozen) ->
         Printf.sprintf "seed=%d processes=%d k=%d frozen=%.1f" seed p k
           (float_of_int frozen /. 10.))
       QCheck.Gen.(
         quad (int_bound 10_000) (int_range 3 7) (int_range 2 4) (int_range 0 5)))
    (fun (seed, processes, k, frozen) ->
      let frozen = float_of_int frozen /. 10. in
      let spec =
        {
          Ftes_workload.Gen.default with
          seed;
          processes;
          nodes = 1 + (seed mod 3);
          frozen_proc_prob = frozen;
          frozen_msg_prob = frozen;
        }
      in
      let t =
        Conditional.schedule ~jobs:1
          (Ftcpg.build (Ftes_workload.Gen.problem ~k spec))
      in
      let sp = complete_and_dropped t in
      let rng = Rng.create seed in
      agrees_with_scan rng t sp && agrees_with_scan rng (damage rng t) sp)

(* --- sampled validation over the packed arena ---------------------- *)

(* The historical algorithm, reconstructed on the materialized scenario
   list: always the no-fault scenarios, plus [Rng.sample] over the full
   list, deduplicated, replayed in guard order. Index sampling over the
   arena must reproduce it draw for draw. *)
let legacy_sampled ~seed ~samples t =
  let rng = Rng.create seed in
  let scenarios = Sim_oracle.scenarios t.Table.ftcpg in
  let no_fault = List.filter (fun s -> Cond.fault_count s = 0) scenarios in
  let sampled = Rng.sample rng samples scenarios in
  let chosen = List.sort_uniq Cond.compare (no_fault @ sampled) in
  List.concat_map (fun s -> (Sim_oracle.run t ~scenario:s).Sim.violations)
    chosen
  @ Sim.frozen_start_violations t

let test_sampled_matches_legacy () =
  let t = tight_fig5_table () in
  List.iter
    (fun seed ->
      List.iter
        (fun samples ->
          let expected = legacy_sampled ~seed ~samples t in
          let got =
            Sim.validate_sampled ~jobs:1 ~rng:(Rng.create seed) ~samples t
          in
          Alcotest.(check (list string))
            (Printf.sprintf "seed=%d samples=%d" seed samples)
            (List.map Violation.to_string expected)
            (List.map Violation.to_string got);
          Alcotest.(check bool)
            (Printf.sprintf "seed=%d samples=%d structural" seed samples)
            true (got = expected))
        [ 0; 3; 7 ])
    [ 1; 2; 3; 4; 5 ]

(* --- Condvec primitives -------------------------------------------- *)

(* A universe wide enough to cross the 31-field word boundary. *)
let wide_universe () = Condvec.universe (Array.init 40 (fun i -> (3 * i) + 1))

let guard_of_indices u lits =
  Option.get
    (Cond.of_literals
       (List.map
          (fun (idx, fault) -> { Cond.cond = Condvec.cond_of_index u idx; fault })
          lits))

let test_condvec_roundtrip () =
  let u = wide_universe () in
  let row = Condvec.create_row u in
  let lits = [ (0, true); (5, false); (30, true); (31, false); (39, true) ] in
  List.iter (fun (idx, fault) -> Condvec.set u row idx fault) lits;
  let g = Condvec.guard_of_row u row in
  Alcotest.(check bool) "roundtrip" true
    (Cond.equal g (guard_of_indices u lits));
  Alcotest.(check int) "fault count" 3 (Condvec.row_fault_count row);
  Condvec.unset u row 30;
  Alcotest.(check int) "fault count after unset" 2
    (Condvec.row_fault_count row);
  Alcotest.(check bool) "unset literal gone" true
    (Cond.equal
       (Condvec.guard_of_row u row)
       (guard_of_indices u [ (0, true); (5, false); (31, false); (39, true) ]))

let test_condvec_implies_agrees () =
  let u = wide_universe () in
  let rng = Rng.create 42 in
  for _ = 1 to 200 do
    let row = Condvec.create_row u in
    let row_lits =
      List.init 12 (fun _ -> (Rng.int rng 40, Rng.bool rng))
      |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
    in
    List.iter (fun (idx, fault) -> Condvec.set u row idx fault) row_lits;
    let scenario = Condvec.guard_of_row u row in
    let guard_lits =
      List.init 4 (fun _ -> (Rng.int rng 40, Rng.bool rng))
      |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
    in
    let g = guard_of_indices u guard_lits in
    let packed = Condvec.pack_guard u g in
    Alcotest.(check bool) "row_implies = Cond.implies"
      (Cond.implies scenario g)
      (Condvec.row_implies row packed);
    Alcotest.(check int) "row_fault_count = Cond.fault_count"
      (Cond.fault_count scenario)
      (Condvec.row_fault_count row)
  done

let test_condvec_out_of_universe_guard () =
  let u = wide_universe () in
  (* Condition id 2 is not in the universe (ids are 3i+1). *)
  let g = Option.get (Cond.of_literals [ { Cond.cond = 2; fault = true } ]) in
  let packed = Condvec.pack_guard u g in
  let row = Condvec.create_row u in
  Alcotest.(check bool) "empty row does not imply it" false
    (Condvec.row_implies row packed);
  for idx = 0 to 39 do
    Condvec.set u row idx true
  done;
  Alcotest.(check bool) "full row does not imply it either" false
    (Condvec.row_implies row packed);
  Alcotest.(check bool) "guard_true always implied" true
    (Condvec.row_implies row (Condvec.guard_true u))

let test_scenario_space_matches_list () =
  let f = Ftcpg.build (Helpers.fig5_problem ()) in
  let sp = Ftcpg.scenario_space f in
  let scenarios = Sim_oracle.scenarios f in
  Alcotest.(check int) "count" (List.length scenarios) (Condvec.count sp);
  Alcotest.(check int) "scenario_count agrees" (Condvec.count sp)
    (Ftcpg.scenario_count f);
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "guard_at %d" i)
        true
        (Cond.equal s (Condvec.guard_at sp i));
      Alcotest.(check int)
        (Printf.sprintf "fault_count %d" i)
        (Cond.fault_count s) (Condvec.fault_count sp i))
    scenarios;
  (* implies over the arena agrees with the list guards for every
     vertex guard of the graph. *)
  Array.iter
    (fun (v : Ftcpg.vertex) ->
      let packed = Condvec.pack_guard sp.Condvec.u v.Ftcpg.guard in
      List.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "implies vid=%d scenario=%d" v.Ftcpg.vid i)
            (Cond.implies s v.Ftcpg.guard)
            (Condvec.implies sp i packed))
        scenarios)
    (Ftcpg.vertices f)

let () =
  Alcotest.run "sim-packed"
    [
      ( "equivalence",
        [
          Alcotest.test_case "clean table" `Quick test_clean_table_equivalent;
          Alcotest.test_case "tight table" `Quick test_tight_table_equivalent;
          Alcotest.test_case "corrupted tables" `Quick
            test_corrupted_tables_equivalent;
          Alcotest.test_case "random instances" `Quick
            test_random_instances_equivalent;
          Alcotest.test_case "corpus smoke instances" `Slow
            test_corpus_smoke_equivalent;
        ] );
      ( "run",
        [
          Alcotest.test_case "Sim.run = Sim_oracle.run" `Quick
            test_run_matches_oracle;
          Alcotest.test_case "shrink report = oracle shrink report" `Quick
            test_report_matches_oracle;
        ] );
      ( "replay",
        [
          Alcotest.test_case "clean replay allocates nothing" `Quick
            test_clean_replay_allocates_nothing;
          Alcotest.test_case "compile allocation" `Quick test_compile_words;
          Alcotest.test_case "shared scratch = fresh scratch" `Quick
            test_shared_scratch_matches_fresh;
          test_replay_matches_oracle_on_damaged_tables;
          test_replay_matches_scan;
        ] );
      ( "sampled",
        [
          Alcotest.test_case "index sampling = legacy sampling" `Quick
            test_sampled_matches_legacy;
        ] );
      ( "condvec",
        [
          Alcotest.test_case "pack/unpack roundtrip" `Quick
            test_condvec_roundtrip;
          Alcotest.test_case "implies/fault_count agree with Cond" `Quick
            test_condvec_implies_agrees;
          Alcotest.test_case "out-of-universe guard never implied" `Quick
            test_condvec_out_of_universe_guard;
          Alcotest.test_case "scenario space = scenario list" `Quick
            test_scenario_space_matches_list;
        ] );
    ];
  Ftes_util.Par.shutdown ()
