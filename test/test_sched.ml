(* Tests for the scheduling layer: timelines, bus allocation, schedule
   tables, conditional scheduling (checked against the Fig. 5/6
   scenario) and the slack-based estimator. *)

module Table = Ftes_sched.Table
module Conditional = Ftes_sched.Conditional
module Slack = Ftes_sched.Slack
module Lane = Ftes_sched.Lane
module Cond = Ftes_ftcpg.Cond
module Ftcpg = Ftes_ftcpg.Ftcpg
module Problem = Ftes_ftcpg.Problem
module Bus = Ftes_arch.Bus
module Policy = Ftes_app.Policy

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_timeline_basics () =
  let t = Timeline.empty in
  let t = Timeline.reserve t ~start:10. ~finish:20. in
  let t = Timeline.reserve t ~start:0. ~finish:5. in
  Alcotest.(check bool) "free gap" true (Timeline.is_free t ~start:5. ~finish:10.);
  Alcotest.(check bool) "occupied" false (Timeline.is_free t ~start:4. ~finish:6.);
  Helpers.check_float "busy until" 20. (Timeline.busy_until t);
  Alcotest.(check int) "intervals" 2 (List.length (Timeline.intervals t));
  Alcotest.check_raises "overlap"
    (Invalid_argument "Timeline.reserve: overlapping reservation") (fun () ->
      ignore (Timeline.reserve t ~start:15. ~finish:25.))

let test_timeline_gap () =
  let t = Timeline.reserve Timeline.empty ~start:10. ~finish:20. in
  Helpers.check_float "before" 0. (Timeline.earliest_gap t ~from_:0. ~duration:10.);
  Helpers.check_float "after" 20. (Timeline.earliest_gap t ~from_:0. ~duration:11.);
  Helpers.check_float "zero duration anywhere" 15.
    (Timeline.earliest_gap t ~from_:15. ~duration:0.)

let test_timeline_busy_until () =
  Helpers.check_float "empty" 0. (Timeline.busy_until Timeline.empty);
  let t = Timeline.reserve Timeline.empty ~start:10. ~finish:20. in
  Helpers.check_float "single" 20. (Timeline.busy_until t);
  (* Backfilling an earlier gap must not move the busy horizon. *)
  let t = Timeline.reserve t ~start:0. ~finish:5. in
  Helpers.check_float "backfilled" 20. (Timeline.busy_until t);
  (* Zero-length reservations occupy nothing and move nothing. *)
  let t = Timeline.reserve t ~start:30. ~finish:30. in
  Helpers.check_float "zero-length ignored" 20. (Timeline.busy_until t)

let test_timeline_touching_intervals () =
  (* Exactly-touching reservations (finish = next start) are legal in
     either insertion order, and within-eps touches are too. *)
  let t = Timeline.reserve Timeline.empty ~start:10. ~finish:20. in
  let t = Timeline.reserve t ~start:20. ~finish:30. in
  let t = Timeline.reserve t ~start:0. ~finish:10. in
  Alcotest.(check int) "three intervals" 3 (List.length (Timeline.intervals t));
  let t' = Timeline.reserve t ~start:(30. -. 1e-10) ~finish:40. in
  Alcotest.(check int) "eps-touching accepted" 4
    (List.length (Timeline.intervals t'));
  Alcotest.check_raises "past-eps overlap rejected"
    (Invalid_argument "Timeline.reserve: overlapping reservation") (fun () ->
      ignore (Timeline.reserve t ~start:29.9 ~finish:40.));
  (* The intervals list stays sorted ascending whatever the insertion
     order. *)
  let sorted l = List.sort compare l = l in
  Alcotest.(check bool) "ascending" true (sorted (Timeline.intervals t'))

let test_timeline_gap_edges () =
  let t = Timeline.reserve Timeline.empty ~start:10. ~finish:20. in
  let t = Timeline.reserve t ~start:25. ~finish:35. in
  (* A duration that exactly fits the inter-reservation gap lands in it. *)
  Helpers.check_float "exact fit" 20.
    (Timeline.earliest_gap t ~from_:12. ~duration:5.);
  (* One past the gap skips to the end of all reservations. *)
  Helpers.check_float "too wide" 35.
    (Timeline.earliest_gap t ~from_:12. ~duration:5.1);
  (* from_ inside a reservation is pushed to its end. *)
  Helpers.check_float "inside reservation" 20.
    (Timeline.earliest_gap t ~from_:12. ~duration:3.);
  (* from_ past the busy horizon returns from_ (the fast path). *)
  Helpers.check_float "past horizon" 50.
    (Timeline.earliest_gap t ~from_:50. ~duration:100.);
  (* Zero-duration items fit even inside a reservation. *)
  Helpers.check_float "zero duration inside" 15.
    (Timeline.earliest_gap t ~from_:15. ~duration:0.);
  Alcotest.check_raises "negative interval"
    (Invalid_argument "Timeline.reserve: negative interval") (fun () ->
      ignore (Timeline.reserve t ~start:5. ~finish:4.))

let timeline_props =
  let arb =
    QCheck.make
      ~print:(fun xs ->
        String.concat ";"
          (List.map (fun (s, d) -> Printf.sprintf "(%g,%g)" s d) xs))
      QCheck.Gen.(
        list_size (int_bound 12)
          (pair (float_range 0. 100.) (float_range 0.1 10.)))
  in
  [
    Helpers.qtest "earliest_gap returns a free, late-enough slot" arb
      (fun reqs ->
        let t =
          List.fold_left
            (fun t (s, d) ->
              let s' = Timeline.earliest_gap t ~from_:s ~duration:d in
              Timeline.reserve t ~start:s' ~finish:(s' +. d))
            Timeline.empty reqs
        in
        (* reserve would have raised if any placement overlapped. *)
        List.length (Timeline.intervals t) = List.length reqs);
    Helpers.qtest "gap position respects from_" arb (fun reqs ->
        let t =
          List.fold_left
            (fun t (s, d) ->
              let s' = Timeline.earliest_gap t ~from_:s ~duration:d in
              Timeline.reserve t ~start:s' ~finish:(s' +. d))
            Timeline.empty reqs
        in
        List.for_all
          (fun (s, d) -> Timeline.earliest_gap t ~from_:s ~duration:d >= s)
          reqs);
  ]

(* ------------------------------------------------------------------ *)
(* Busalloc                                                            *)
(* ------------------------------------------------------------------ *)

let test_busalloc_tdma_lanes () =
  let bus = Bus.tdma ~slot_length:10. ~bandwidth:1. 2 in
  let b = Busalloc.create bus ~nodes:2 in
  let b, (s0, f0) = Busalloc.place b ~src:0 ~size:5. ~earliest:0. in
  let b, (s1, f1) = Busalloc.place b ~src:1 ~size:5. ~earliest:0. in
  Helpers.check_float "node 0 slot" 0. s0;
  Helpers.check_float "node 1 slot" 10. s1;
  Alcotest.(check bool) "disjoint" true (f0 <= s1 || f1 <= s0);
  (* Second message from node 0 packs into the same slot. *)
  let _, (s2, _) = Busalloc.place b ~src:0 ~size:3. ~earliest:0. in
  Helpers.check_float "packed mid-slot" 5. s2

let test_busalloc_probe_matches_place () =
  let bus = Bus.tdma ~slot_length:10. ~bandwidth:1. 3 in
  let b = Busalloc.create bus ~nodes:3 in
  let b, _ = Busalloc.place b ~src:1 ~size:4. ~earliest:0. in
  let ps, pf = Busalloc.probe b ~src:1 ~size:4. ~earliest:0. in
  let _, (s, f) = Busalloc.place b ~src:1 ~size:4. ~earliest:0. in
  Helpers.check_float "probe start" ps s;
  Helpers.check_float "probe finish" pf f

let test_busalloc_zero_size () =
  let bus = Bus.single ~bandwidth:1. () in
  let b = Busalloc.create bus ~nodes:1 in
  let b', (s, f) = Busalloc.place b ~src:0 ~size:0. ~earliest:3. in
  Helpers.check_float "instant" 3. s;
  Helpers.check_float "instant finish" 3. f;
  ignore b'

(* ------------------------------------------------------------------ *)
(* Lane vs. the persistent Timeline/Busalloc references                *)
(* ------------------------------------------------------------------ *)

(* One step of a random lane workload: gap queries and reservations on
   a node lane, window probes and reservations on the bus lanes, the
   conditional scheduler's mark / undo-to-mark, and the slack
   estimator's clear-and-reuse of every lane between schedules. *)
type lane_op =
  | Gap of float * float  (* earliest_gap ~from_ ~duration *)
  | Fill of float * float  (* reserve at the earliest gap *)
  | Put of float * float  (* reserve [s, s + d) as given, maybe out of
                             order, overlapping or negative *)
  | Probe of int * float * float  (* bus window of src, size, earliest *)
  | Send of int * float * float  (* reserve that window *)
  | Post of int * float * float  (* reserve [s, s + d) on src's lane *)
  | Mark
  | Undo
  | Clear

let pp_lane_op = function
  | Gap (f, d) -> Printf.sprintf "Gap(%g,%g)" f d
  | Fill (f, d) -> Printf.sprintf "Fill(%g,%g)" f d
  | Put (s, d) -> Printf.sprintf "Put(%g,%g)" s d
  | Probe (src, z, e) -> Printf.sprintf "Probe(%d,%g,%g)" src z e
  | Send (src, z, e) -> Printf.sprintf "Send(%d,%g,%g)" src z e
  | Post (src, s, d) -> Printf.sprintf "Post(%d,%g,%g)" src s d
  | Mark -> "Mark"
  | Undo -> "Undo"
  | Clear -> "Clear"

let lane_case =
  let open QCheck.Gen in
  (* Coarse grids make touching intervals and exact fits common. *)
  let time = map (fun i -> float_of_int i *. 0.5) (int_bound 60) in
  let dur = oneofl [ 0.; 0.; 0.5; 1.; 2.; 3.; 5.; -1. ] in
  let size = oneofl [ 0.; 0.5; 1.; 2.; 3.; 7.; 12. ] in
  let bus =
    oneof
      [
        map2
          (fun setup bw -> ("single", Bus.single ~setup ~bandwidth:bw ()))
          (oneofl [ 0.; 0.5; 1. ])
          (oneofl [ 0.5; 1.; 2. ]);
        (* Slots of 1..3 against messages up to 12 tu: most messages
           span several rounds, and some pack mid-slot. *)
        map3
          (fun slot bw rev ->
            let order = if rev then [| 2; 0; 1 |] else [| 0; 1; 2 |] in
            ( Printf.sprintf "tdma slot %g bw %g%s" slot bw
                (if rev then " shuffled" else ""),
              Bus.tdma ~slot_order:order ~slot_length:slot ~bandwidth:bw 3 ))
          (oneofl [ 1.; 2.; 3. ])
          (oneofl [ 0.5; 1.; 2. ])
          bool;
      ]
  in
  let op =
    frequency
      [
        (2, map2 (fun f d -> Gap (f, d)) time dur);
        (3, map2 (fun f d -> Fill (f, d)) time dur);
        (2, map2 (fun s d -> Put (s, d)) time dur);
        (2, map3 (fun src z e -> Probe (src, z, e)) (int_bound 2) size time);
        (3, map3 (fun src z e -> Send (src, z, e)) (int_bound 2) size time);
        (1, map3 (fun src s d -> Post (src, s, d)) (int_bound 2) time dur);
        (2, return Mark);
        (2, return Undo);
        (1, return Clear);
      ]
  in
  pair bus (list_size (int_range 1 80) op)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Runs [ops] on a [Lane] node lane and [Lane.bus_lanes], undoing with
   the reserve indices as the conditional scheduler's trail does, and on
   the persistent references, restored to the value held at each mark.
   A clear empties every lane in place, which must behave as fresh
   references from then on. Every answer, every raise and the node
   lane's contents after every step must agree bit for bit. *)
let lane_agrees ((_, bus), ops) =
  let nodes = 3 in
  let view = Lane.view bus ~nodes in
  let nl = Lane.create () and bl = Lane.bus_lanes view in
  let blane src = bl.(Lane.bus_lane view ~src) in
  let tl = ref Timeline.empty and ba = ref (Busalloc.create bus ~nodes) in
  let trail = ref [] and marks = ref [] in
  let reserve lane ~start ~finish =
    let p = Lane.reserve lane ~start ~finish in
    if p >= 0 then trail := (lane, p) :: !trail
  in
  let outcome f =
    match f () with x -> Ok x | exception Invalid_argument _ -> Error ()
  in
  let window src size earliest =
    Lane.bus_window (blane src) view ~src ~size ~earliest
  in
  let same_window (s, f) (s', f') = same_bits s s' && same_bits f f' in
  let step = function
    | Gap (from_, duration) ->
        same_bits
          (Lane.earliest_gap nl ~from_ ~duration)
          (Timeline.earliest_gap !tl ~from_ ~duration)
    | Fill (from_, duration) ->
        let duration = Float.abs duration in
        let s = Lane.earliest_gap nl ~from_ ~duration in
        let s' = Timeline.earliest_gap !tl ~from_ ~duration in
        reserve nl ~start:s ~finish:(s +. duration);
        tl := Timeline.reserve !tl ~start:s' ~finish:(s' +. duration);
        same_bits s s'
    | Put (start, d) -> (
        let finish = start +. d in
        match
          ( outcome (fun () -> Timeline.reserve !tl ~start ~finish),
            outcome (fun () -> reserve nl ~start ~finish) )
        with
        | Ok t, Ok () ->
            tl := t;
            true
        | Error (), Error () -> true
        | Ok _, Error () | Error (), Ok () -> false)
    | Probe (src, size, earliest) ->
        same_window (window src size earliest)
          (Busalloc.probe !ba ~src ~size ~earliest)
    | Send (src, size, earliest) ->
        let ((s, f) as w) = window src size earliest in
        reserve (blane src) ~start:s ~finish:f;
        let b, w' = Busalloc.place !ba ~src ~size ~earliest in
        ba := b;
        same_window w w'
    | Post (src, start, d) -> (
        let finish = start +. d in
        match
          ( outcome (fun () -> Busalloc.reserve_window !ba ~src ~start ~finish),
            outcome (fun () -> reserve (blane src) ~start ~finish) )
        with
        | Ok b, Ok () ->
            ba := b;
            true
        | Error (), Error () -> true
        | Ok _, Error () | Error (), Ok () -> false)
    | Mark ->
        marks := (List.length !trail, !tl, !ba) :: !marks;
        true
    | Undo -> (
        match !marks with
        | [] -> true
        | (depth, t, b) :: rest ->
            marks := rest;
            while List.length !trail > depth do
              match !trail with
              | (lane, p) :: more ->
                  Lane.remove lane p;
                  trail := more
              | [] -> ()
            done;
            tl := t;
            ba := b;
            true)
    | Clear ->
        Lane.clear nl;
        Array.iter Lane.clear bl;
        tl := Timeline.empty;
        ba := Busalloc.create bus ~nodes;
        trail := [];
        marks := [];
        Lane.length nl = 0 && Array.for_all (fun l -> Lane.length l = 0) bl
  in
  List.for_all
    (fun op ->
      step op
      && List.equal
           (fun (s, f) (s', f') -> same_bits s s' && same_bits f f')
           (Lane.intervals nl) (Timeline.intervals !tl))
    ops

let lane_props =
  [
    Helpers.qtest ~count:500
      "matches Timeline/Busalloc bitwise, with undo to mark and clear"
      (QCheck.make
         ~print:(fun ((name, _), ops) ->
           name ^ ": " ^ String.concat " " (List.map pp_lane_op ops))
         lane_case)
      lane_agrees;
  ]

let test_lane_undo_restores () =
  let l = Lane.create () in
  let p1 = Lane.reserve l ~start:10. ~finish:20. in
  let p2 = Lane.reserve l ~start:0. ~finish:5. in
  let p3 = Lane.reserve l ~start:5. ~finish:10. in
  Alcotest.(check (list int)) "insertion indices" [ 0; 0; 1 ] [ p1; p2; p3 ];
  Alcotest.(check int) "zero length reserves nothing" (-1)
    (Lane.reserve l ~start:7. ~finish:7.);
  Alcotest.(check int) "length" 3 (Lane.length l);
  Lane.remove l p3;
  Lane.remove l p2;
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "undone newest first" [ (10., 20.) ] (Lane.intervals l);
  Alcotest.check_raises "overlap"
    (Invalid_argument "Lane.reserve: overlapping reservation") (fun () ->
      ignore (Lane.reserve l ~start:15. ~finish:25.))

(* ------------------------------------------------------------------ *)
(* Conditional scheduling — Fig. 5/6                                   *)
(* ------------------------------------------------------------------ *)

let fig5_table () = Conditional.schedule (Ftcpg.build (Helpers.fig5_problem ()))

let test_fig6_lengths () =
  let t = fig5_table () in
  (* Regression-pinned: worst case 225, fault-free 180 with the Fig. 5
     parameters of this reproduction. *)
  Helpers.check_float "worst" 225. (Table.schedule_length t);
  Helpers.check_float "no fault" 180. (Table.no_fault_length t);
  Alcotest.(check int) "tracks = scenarios" 15 (List.length t.Table.tracks)

let test_fig6_frozen_single_start () =
  let t = fig5_table () in
  let f = t.Table.ftcpg in
  Array.iter
    (fun v ->
      if v.Ftcpg.frozen && v.Ftcpg.duration > 0. then
        Alcotest.(check int)
          (v.Ftcpg.name ^ " single start")
          1
          (List.length (Table.starts_of_vertex t v.Ftcpg.vid)))
    (Ftcpg.vertices f)

let test_fig6_deterministic () =
  let t1 = fig5_table () and t2 = fig5_table () in
  Alcotest.(check int) "same entry count" (Table.entry_count t1)
    (Table.entry_count t2);
  Helpers.check_float "same length" (Table.schedule_length t1)
    (Table.schedule_length t2)

(* Golden pin for the priority-queue rewrite of the pending-reveal list:
   the full Fig. 6 tables (both renderings) must stay byte-identical to
   the output of the List.sort-based scheduler they replaced. Digests
   captured from the pre-rewrite code. *)
let test_fig6_golden_tables () =
  let t = fig5_table () in
  Alcotest.(check int) "entry count" 67 (Table.entry_count t);
  Helpers.check_float "schedule length" 225. (Table.schedule_length t);
  Alcotest.(check int) "tracks" 15 (List.length t.Table.tracks);
  Alcotest.(check string) "Table.pp digest"
    "d23e00e82a11db888d50fb5fb1cf5589"
    (Digest.to_hex (Digest.string (Format.asprintf "%a" Table.pp t)));
  Alcotest.(check string) "pp_matrix digest"
    "6a4a468f0d89328483ce70b1e925d752"
    (Digest.to_hex
       (Digest.string
          (Format.asprintf "%a" (Table.pp_matrix ~max_columns:24) t)))

let test_conditional_k0 () =
  let p = Helpers.fig5_problem () in
  let policies =
    Array.map (fun _ -> Policy.re_execution ~recoveries:0) p.Problem.policies
  in
  let p0 = Problem.with_policies (Problem.with_k p 0) policies p.Problem.mapping in
  let t = Conditional.schedule (Ftcpg.build p0) in
  Alcotest.(check int) "single track" 1 (List.length t.Table.tracks);
  Alcotest.(check bool) "no conditions" true
    (List.for_all
       (fun e -> Cond.equal e.Table.guard Cond.true_)
       t.Table.entries)

let test_conditional_deadline_violation () =
  let p = Helpers.fig5_problem () in
  let tight =
    Problem.make ~app:(Ftes_app.App.with_deadline p.Problem.app 200.)
      ~arch:p.Problem.arch ~wcet:p.Problem.wcet ~k:2
      ~policies:p.Problem.policies ~mapping:p.Problem.mapping
  in
  let t = Conditional.schedule (Ftcpg.build tight) in
  Alcotest.(check bool) "misses" false (Table.meets_deadline t);
  Alcotest.(check bool) "violations reported" true (Table.violations t <> [])

let test_conditional_track_cap () =
  let f = Ftcpg.build (Helpers.over_limit_problem ~processes:8) in
  Alcotest.(check bool) "raises" true
    (match Conditional.schedule f with
    | exception Conditional.Too_many_tracks cap -> cap = Conditional.track_cap
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Incremental scheduler vs. reference scheduler                       *)
(* ------------------------------------------------------------------ *)

let table_digest t =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Table.pp t))

(* The rebuilt scheduler (ready set + placement cache + undo-trailed
   lanes + parallel slot assembly) must reproduce the reference
   transcription byte-for-byte: same digests for every jobs value and
   with telemetry recording. *)
let test_incremental_matches_reference_fig5 () =
  let f = Ftcpg.build (Helpers.fig5_problem ()) in
  let d_ref = table_digest (Conditional_oracle.schedule f) in
  Alcotest.(check string) "jobs=1" d_ref
    (table_digest (Conditional.schedule ~jobs:1 f));
  Alcotest.(check string) "jobs=4" d_ref
    (table_digest (Conditional.schedule ~jobs:4 f));
  Ftes_util.Events.enable ();
  let d_tel1 = table_digest (Conditional.schedule ~jobs:1 f) in
  let d_tel4 = table_digest (Conditional.schedule ~jobs:4 f) in
  Ftes_util.Events.disable ();
  Ftes_util.Telemetry.reset ();
  Alcotest.(check string) "telemetry on, jobs=1" d_ref d_tel1;
  Alcotest.(check string) "telemetry on, jobs=4" d_ref d_tel4

let sched_props =
  let arb =
    QCheck.make
      ~print:(fun (seed, n, k) -> Printf.sprintf "seed=%d n=%d k=%d" seed n k)
      QCheck.Gen.(triple (int_bound 10_000) (int_range 3 9) (int_range 1 2))
  in
  [
    Helpers.qtest ~count:30 "incremental matches reference, jobs 1 and 4" arb
      (fun (seed, n, k) ->
        (* Frozen vertices are on, so multi-iteration fixpoints are
           exercised; mixed policies exercise replication forks. *)
        let p = Helpers.random_problem ~processes:n ~nodes:2 ~k ~seed () in
        let f = Ftcpg.build p in
        let d = table_digest (Conditional_oracle.schedule f) in
        table_digest (Conditional.schedule f) = d
        && table_digest (Conditional.schedule ~jobs:4 f) = d);
    Helpers.qtest ~count:25
      "incremental matches reference: deep forks, jobs 1 and 4"
      (QCheck.make
         ~print:(fun (seed, n, nodes, k) ->
           Printf.sprintf "seed=%d n=%d nodes=%d k=%d" seed n nodes k)
         QCheck.Gen.(
           quad (int_bound 10_000) (int_range 3 6) (int_range 2 3)
             (int_range 3 4)))
      (fun (seed, n, nodes, k) ->
        (* Three or four faults fork the walk deep, so each branch pops
           back over long undo runs, and slots gather many guards. *)
        let p = Helpers.random_problem ~processes:n ~nodes ~k ~seed () in
        let f = Ftcpg.build p in
        let d = table_digest (Conditional_oracle.schedule f) in
        List.for_all
          (fun jobs -> table_digest (Conditional.schedule ~jobs f) = d)
          [ 1; 4 ]);
    Helpers.qtest ~count:40 "worst-case length dominates every track" arb
      (fun (seed, n, k) ->
        let p = Helpers.random_problem ~processes:n ~nodes:2 ~k ~seed () in
        let t = Conditional.schedule (Ftcpg.build p) in
        List.for_all
          (fun tr -> tr.Table.makespan <= Table.schedule_length t +. 1e-6)
          t.Table.tracks);
    Helpers.qtest ~count:40 "fault-free track never exceeds worst case" arb
      (fun (seed, n, k) ->
        let p = Helpers.random_problem ~processes:n ~nodes:2 ~k ~seed () in
        let t = Conditional.schedule (Ftcpg.build p) in
        Table.no_fault_length t <= Table.schedule_length t +. 1e-6);
    Helpers.qtest ~count:40 "entries well-formed" arb (fun (seed, n, k) ->
        let p = Helpers.random_problem ~processes:n ~nodes:2 ~k ~seed () in
        let t = Conditional.schedule (Ftcpg.build p) in
        List.for_all
          (fun e ->
            e.Table.start >= -1e-9 && e.Table.finish >= e.Table.start -. 1e-9)
          t.Table.entries);
  ]

(* Words allocated by one [Conditional.schedule ~jobs:1] on a fixed
   generated instance (10 processes, 2 nodes, k = 4: 810 FT-CPG
   vertices, 1,001 tracks): minor words, plus the words allocated
   straight in the major heap, where arrays of more than 256 words go.
   The count is deterministic for a given compiler and build
   profile. The bound is 1.25x the 4,012,902 words measured with the
   undo trail (walk and table assembly about 2.0M each); copying the
   vertex-sized arrays at every fork, as the scheduler once did, took
   6,929,070 and fails here. *)
let conditional_alloc_bound = 5_016_000.

let test_conditional_allocation () =
  let p =
    Ftes_workload.Gen.problem ~k:4
      { Ftes_workload.Gen.default with processes = 10; nodes = 2; seed = 8 }
  in
  let f = Ftcpg.build p in
  ignore (Conditional.schedule ~jobs:1 f);
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = allocated () in
  ignore (Conditional.schedule ~jobs:1 f);
  let words = allocated () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per schedule <= %.0f" words
       conditional_alloc_bound)
    true
    (words <= conditional_alloc_bound)

(* ------------------------------------------------------------------ *)
(* Schedule-table assembly vs. [Table_oracle]                          *)
(* ------------------------------------------------------------------ *)

let lit cond fault = { Cond.cond; fault }

let guard ls =
  match Cond.of_literals (List.map (fun (c, f) -> lit c f) ls) with
  | Some g -> g
  | None -> invalid_arg "guard: contradictory literals"

let fig5_ftcpg = lazy (Ftcpg.build (Helpers.fig5_problem ()))

(* The entries [Table.make], or [Table.assemble ~jobs], stores. *)
let assemble ?jobs entries =
  let ftcpg = Lazy.force fig5_ftcpg in
  (match jobs with
  | None -> Table.make ~ftcpg ~entries ~tracks:[]
  | Some jobs -> Table.assemble ~jobs ~ftcpg ~entries ~tracks:[])
    .Table.entries

(* One slot (same item, resource and start) under each guard. *)
let slot_entries guards =
  List.map
    (fun g ->
      { Table.item = Table.Exec 0; guard = g; start = 10.; finish = 15.;
        resource = Table.Node 0 })
    guards

let guards_of entries = List.map (fun e -> e.Table.guard) entries

let check_guards msg expected actual =
  Alcotest.(check (list string)) msg
    (List.map Cond.to_string expected)
    (List.map Cond.to_string actual)

(* Only complementary literals resolve: [A&c] and [A&d] overlap without
   covering [A], so merging them would extend the entry to scenarios
   neither track committed. *)
let test_assembly_complementary_only () =
  let a = [ (0, false); (3, true) ] in
  let ac = guard ((5, true) :: a) and ad = guard ((7, false) :: a) in
  check_guards "A&c, A&d stay apart" [ ac; ad ]
    (guards_of (assemble (slot_entries [ ad; ac ])));
  check_guards "A&c, A&!c resolve to A" [ guard a ]
    (guards_of (assemble (slot_entries [ ac; guard ((5, false) :: a) ])));
  check_guards "oracle agrees" [ ac; ad ]
    (guards_of (Table_oracle.make (slot_entries [ ad; ac ])))

(* Resolution is not confluent. On this slot (from a verify-tables
   set-up table) the pinned order merges c0&!c1&!c18&!c24 with
   c0&!c1&c18&!c24 first; resolving c0&!c1&!c18&!c24 with
   c0&c1&!c18&!c24 first instead ends at the equivalent cover
   {c0&!c1&!c18&c24&!c25, c0&!c1&c18&!c24, c0&!c18&!c24}, which would
   move table digests. *)
let test_assembly_non_confluent () =
  let input =
    [
      guard [ (0, true); (1, false); (18, false); (24, false) ];
      guard [ (0, true); (1, false); (18, false); (24, true); (25, false) ];
      guard [ (0, true); (1, false); (18, true); (24, false) ];
      guard [ (0, true); (1, true); (18, false); (24, false) ];
    ]
  in
  let pinned =
    [
      guard [ (0, true); (1, false); (18, false); (24, true); (25, false) ];
      guard [ (0, true); (1, false); (24, false) ];
      guard [ (0, true); (1, true); (18, false); (24, false) ];
    ]
  in
  check_guards "oracle" pinned (guards_of (Table_oracle.make (slot_entries input)));
  List.iter
    (fun order ->
      check_guards "Table.make" pinned (guards_of (assemble (slot_entries order))))
    [ input; List.rev input; input @ input ]

(* A random scenario tree: every node commits a few items at starts on
   a coarse grid (sibling tracks coincide, sometimes off by less than
   the 1e-6 slot rounding), then forks on a fresh condition or ends.
   Tracks are concatenated root to leaf, as the reference scheduler
   emits them; [once] emits each commit once, as [Conditional.schedule]
   does. Durations and resources vary, so the slot representative and
   the order of slots sharing a start and item are both exercised. *)
let dfs_entries ~once rs =
  let emitted = ref [] in
  let rec node guard depth path used =
    let fresh = ref [] in
    for _ = 1 to Random.State.int rs 3 do
      let v = Random.State.int rs 6 in
      let start =
        float_of_int (10 * Random.State.int rs 4)
        +. if Random.State.int rs 8 = 0 then 1e-9 else 0.
      in
      let resource =
        if Random.State.int rs 10 = 0 then Table.Bus else Table.Node (v mod 2)
      in
      fresh :=
        { Table.item = (if v = 5 then Table.Bcast 1 else Table.Exec v);
          guard; start; finish = start +. float_of_int (Random.State.int rs 3);
          resource }
        :: !fresh
    done;
    let fresh = List.rev !fresh in
    let path = path @ fresh in
    if once then emitted := List.rev_append fresh !emitted;
    let free = List.filter (fun c -> not (List.mem c used)) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
    if depth = 0 || free = [] || Random.State.int rs 5 = 0 then begin
      if not once then emitted := List.rev_append path !emitted
    end
    else
      let c = List.nth free (Random.State.int rs (List.length free)) in
      List.iter
        (fun fault -> node (Cond.add_exn guard (lit c fault)) (depth - 1) path (c :: used))
        [ true; false ]
  in
  node Cond.true_ 6 [] [];
  List.rev !emitted

(* Arbitrary guards over six conditions, in up to three slots. *)
let arbitrary_entries rs =
  List.init
    (1 + Random.State.int rs 24)
    (fun _ ->
      let g =
        List.filter_map
          (fun c ->
            match Random.State.int rs 3 with
            | 0 -> None
            | n -> Some (c, n = 1))
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let v = Random.State.int rs 3 in
      { Table.item = Table.Exec v; guard = guard g; start = float_of_int v;
        finish = float_of_int (v + 1); resource = Table.Node 0 })

(* Finished tables with duplicated, re-timed and re-guarded entries, as
   the corrupted tables of [test_sim] and [test_symbolic] are built. *)
let corrupted_tables =
  lazy
    (List.map
       (fun (seed, n, k) ->
         Conditional.schedule
           (Ftcpg.build (Helpers.random_problem ~processes:n ~nodes:2 ~k ~seed ())))
       [ (3, 6, 2); (11, 8, 2); (29, 5, 3) ]
    @ [ Conditional.schedule (Lazy.force fig5_ftcpg) ])

let corrupted_entries rs =
  let tables = Lazy.force corrupted_tables in
  let t = List.nth tables (Random.State.int rs (List.length tables)) in
  let es = Array.of_list t.Table.entries in
  let extra =
    List.init
      (1 + Random.State.int rs 6)
      (fun _ ->
        let e = es.(Random.State.int rs (Array.length es)) in
        match Random.State.int rs 3 with
        | 0 -> e
        | 1 -> { e with Table.start = e.Table.start +. 1.; finish = e.Table.finish +. 1. }
        | _ ->
            let other = es.(Random.State.int rs (Array.length es)) in
            { e with Table.guard = other.Table.guard })
  in
  List.fold_left
    (fun acc e ->
      let i = Random.State.int rs (List.length acc + 1) in
      List.filteri (fun j _ -> j < i) acc @ (e :: List.filteri (fun j _ -> j >= i) acc))
    t.Table.entries extra

let assembly_props =
  let agree name ?(count = 300) gen =
    Helpers.qtest ~count name
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
      (fun seed ->
        let entries = gen (Random.State.make [| seed |]) in
        let made = assemble entries in
        made = Table_oracle.make entries && assemble ~jobs:4 entries = made)
  in
  [
    agree "matches oracle: DFS tracks, raw" (dfs_entries ~once:false);
    agree "matches oracle: DFS tracks, once-emitted" (dfs_entries ~once:true);
    agree "matches oracle: arbitrary guards" arbitrary_entries;
    agree ~count:100 "matches oracle: corrupted tables" corrupted_entries;
  ]

(* ------------------------------------------------------------------ *)
(* Slack estimator                                                     *)
(* ------------------------------------------------------------------ *)

let test_slack_fig5 () =
  let p = Helpers.fig5_problem () in
  let r = Slack.evaluate p in
  Alcotest.(check bool) "positive slack" true (r.Slack.slack_term > 0.);
  Helpers.check_float "length = root + slack" r.Slack.length
    (r.Slack.root_makespan +. r.Slack.slack_term);
  let r0 = Slack.evaluate ~ft:false p in
  Helpers.check_float "no slack without ft" 0. r0.Slack.slack_term;
  Alcotest.(check bool) "ft costs time" true (r.Slack.length > r0.Slack.length)

let test_slack_k0_no_slack () =
  let p = Helpers.fig5_problem () in
  let policies =
    Array.map (fun _ -> Policy.re_execution ~recoveries:0) p.Problem.policies
  in
  let p0 =
    Problem.with_policies (Problem.with_k p 0) policies p.Problem.mapping
  in
  let r = Slack.evaluate p0 in
  Helpers.check_float "no recoveries, no slack" 0. r.Slack.slack_term

let test_slack_fto () =
  Helpers.check_float "fto" 50. (Slack.fto ~ft_length:150. ~nft_length:100.);
  Helpers.check_float "zero baseline" 0. (Slack.fto ~ft_length:5. ~nft_length:0.)

let slack_props =
  let arb =
    QCheck.make
      ~print:(fun (seed, n, k) -> Printf.sprintf "seed=%d n=%d k=%d" seed n k)
      QCheck.Gen.(triple (int_bound 10_000) (int_range 3 20) (int_range 1 4))
  in
  [
    Helpers.qtest ~count:60 "placements never overlap on a node" arb
      (fun (seed, n, k) ->
        let p = Helpers.random_problem ~processes:n ~nodes:3 ~k ~seed () in
        let r = Slack.evaluate p in
        let by_node = Hashtbl.create 8 in
        List.iter
          (fun (pl : Slack.placement) ->
            Hashtbl.replace by_node pl.Slack.node
              (pl
              :: (try Hashtbl.find by_node pl.Slack.node with Not_found -> [])))
          r.Slack.placements;
        Hashtbl.fold
          (fun _ pls acc ->
            acc
            && List.for_all
                 (fun (a : Slack.placement) ->
                   List.for_all
                     (fun (b : Slack.placement) ->
                       a == b
                       || a.Slack.finish <= b.Slack.start +. 1e-6
                       || b.Slack.finish <= a.Slack.start +. 1e-6)
                     pls)
                 pls)
          by_node true);
    Helpers.qtest ~count:60 "messages placed after their producer copy" arb
      (fun (seed, n, k) ->
        let p = Helpers.random_problem ~processes:n ~nodes:3 ~k ~seed () in
        let g = Problem.graph p in
        let r = Slack.evaluate p in
        List.for_all
          (fun (mp : Slack.msg_placement) ->
            let m = Ftes_app.Graph.message g mp.Slack.mid in
            let producer =
              List.find
                (fun (pl : Slack.placement) ->
                  pl.Slack.pid = m.Ftes_app.Graph.src
                  && pl.Slack.copy = mp.Slack.copy)
                r.Slack.placements
            in
            mp.Slack.start >= producer.Slack.finish -. 1e-6)
          r.Slack.msg_placements);
    Helpers.qtest ~count:60 "ft never cheaper than no-ft" arb
      (fun (seed, n, k) ->
        let p = Helpers.random_problem ~processes:n ~nodes:3 ~k ~seed () in
        Slack.length ~ft:true p >= Slack.length ~ft:false p -. 1e-6);
    Helpers.qtest ~count:40 "more faults never shorten the estimate" arb
      (fun (seed, n, k) ->
        (* Without transparency: frozen messages depart at worst-case
           times, which depend on k and reshuffle the greedy root
           schedule (a Graham-style anomaly can then shorten it). With
           no frozen objects the root is k-independent and the slack
           term is monotone in k. *)
        let p0 =
          Helpers.random_problem ~processes:n ~nodes:3 ~k:(k + 1) ~seed
            ~mixed_policies:false ~frozen:false ()
        in
        Slack.length (Problem.with_k p0 k)
        <= Slack.length (Problem.with_k p0 (k + 1)) +. 1e-6);
  ]

(* ------------------------------------------------------------------ *)
(* Slack estimator against the list-based oracle                       *)
(* ------------------------------------------------------------------ *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_placement (a : Slack.placement) (b : Slack.placement) =
  a.pid = b.pid && a.copy = b.copy && a.node = b.node
  && same_float a.start b.start
  && same_float a.finish b.finish
  && same_float a.worst_finish b.worst_finish

let msg_key (m : Slack.msg_placement) =
  ( m.mid,
    m.copy,
    Int64.bits_of_float m.start,
    Int64.bits_of_float m.finish,
    m.on_bus )

(* Bit-for-bit agreement with [Slack_oracle]: every figure and the
   placements in order; the transmissions as a multiset, since the
   oracle lists them in hash-table order. The optimizer path
   ([Slack.estimate], [Slack.length]) must give [evaluate]'s figures. *)
let matches_oracle ?ft p =
  let r = Slack.evaluate ?ft p and o = Slack_oracle.evaluate ?ft p in
  let e = Slack.estimate ?ft p in
  same_float (Slack.length ?ft p) r.Slack.length
  && same_float e.Slack.length r.Slack.length
  && same_float e.root_makespan r.root_makespan
  && same_float e.slack_term r.slack_term
  && Array.for_all2 same_float e.penalties r.penalties
  && e.placements = [] && e.msg_placements = []
  && same_float r.Slack.length o.Slack.length
  && same_float r.root_makespan o.root_makespan
  && same_float r.slack_term o.slack_term
  && Array.length r.penalties = Array.length o.penalties
  && Array.for_all2 same_float r.penalties o.penalties
  && List.equal same_placement r.placements o.placements
  && List.sort compare (List.map msg_key r.msg_placements)
     = List.sort compare (List.map msg_key o.msg_placements)

(* [remaps] random copy moves, drawn like the tabu search draws them:
   any copy, replicas included, to any allowed node — so replicas of
   one process may end up sharing a node. *)
let remapped ~seed ~remaps (p : Problem.t) =
  let rng = Ftes_util.Rng.create (seed + 7) in
  let n = Ftes_app.Graph.process_count (Problem.graph p) in
  let rec go (p : Problem.t) i =
    if i = 0 then p
    else
      let pid = Ftes_util.Rng.int rng n in
      let mapping = p.Problem.mapping in
      let copy =
        Ftes_util.Rng.int rng (Ftes_ftcpg.Mapping.copy_count mapping ~pid)
      in
      let nid =
        Ftes_util.Rng.pick_list rng
          (Ftes_arch.Wcet.allowed_nodes p.Problem.wcet ~pid)
      in
      go
        (Problem.with_policies p p.Problem.policies
           (Ftes_ftcpg.Mapping.remap mapping ~pid ~copy ~nid))
        (i - 1)
  in
  go p remaps

(* One domain's tables and scratch serve every evaluation in turn. A run
   interleaves three universes over one graph — a frozen app on a TDMA
   bus, the same graph with nothing frozen, and the frozen app on a
   single bus — with designs whose copy counts grow and shrink (all
   re-execution, all replication, all combined, or mixed) and [ft] on
   and off. The oracle keeps no state between evaluations, so each
   evaluation matching it bit for bit means the reused scratch behaved
   as a fresh one. *)
let scratch_universes ~seed ~n ~k =
  let base =
    Helpers.random_problem ~processes:n ~nodes:3 ~k ~seed
      ~mixed_policies:false ()
  in
  let app = base.Problem.app in
  let frozen =
    Ftes_app.App.with_transparency app
      (Ftes_app.Transparency.freeze app.Ftes_app.App.transparency
         (Ftes_app.Transparency.Proc (n / 2)))
  in
  let thawed =
    Ftes_app.App.with_transparency app Ftes_app.Transparency.none
  in
  let single =
    Ftes_arch.Arch.make ~node_count:3
      ~bus:(Bus.single ~setup:1. ~bandwidth:0.5 ())
      ()
  in
  ( [| (frozen, base.Problem.arch); (thawed, base.Problem.arch);
       (frozen, single) |],
    base.Problem.wcet )

let scratch_design ~seed ~k (app, arch) wcet (u, family, ft, remaps) =
  let n = Ftes_app.Graph.process_count app.Ftes_app.App.graph in
  let combined () =
    if k >= 2 then Policy.combined ~replicas:1 ~recoveries_per_copy:[ k - 1; 0 ]
    else Policy.replication ~k
  in
  let policies =
    Array.init n (fun pid ->
        match (family, pid mod 3) with
        | 0, _ | 3, 0 ->
            if pid mod 2 = 0 then Policy.re_execution ~recoveries:k
            else Policy.checkpointing ~recoveries:k ~checkpoints:2
        | 1, _ | 3, 1 -> Policy.replication ~k
        | _ -> combined ())
  in
  let mapping = Problem.fastest_mapping ~app ~wcet ~policies in
  let p = Problem.make ~app ~arch ~wcet ~k ~policies ~mapping in
  (remapped ~seed:(seed + u + remaps) ~remaps p, ft)

let scratch_arb =
  QCheck.make
    ~print:(fun ((seed, n, k), steps) ->
      Printf.sprintf "seed=%d n=%d k=%d steps=[%s]" seed n k
        (String.concat "; "
           (List.map
              (fun (u, family, ft, remaps) ->
                Printf.sprintf "u%d family %d ft=%b remaps=%d" u family ft
                  remaps)
              steps)))
    QCheck.Gen.(
      pair
        (triple (int_bound 10_000) (int_range 3 16) (int_range 1 3))
        (list_size (int_range 2 12)
           (quad (int_bound 2) (int_bound 3) bool (int_bound 6))))

let scratch_reused ((seed, n, k), steps) =
  let universes, wcet = scratch_universes ~seed ~n ~k in
  List.for_all
    (fun ((u, _, _, _) as step) ->
      let p, ft = scratch_design ~seed ~k universes.(u) wcet step in
      matches_oracle ~ft p)
    steps

(* Half the cases keep the generator's 10-unit TDMA slot; the others
   draw a slot of 1-9 units, so the 2-8 unit messages often span
   several rounds. Independently, half shuffle the slot order. *)
let oracle_props =
  let arb =
    QCheck.make
      ~print:(fun ((seed, n, k), (tdma, ft, frozen, remaps), (slot, shuffle)) ->
        Printf.sprintf
          "seed=%d n=%d k=%d tdma=%b ft=%b frozen=%b remaps=%d slot=%h \
           shuffle=%b"
          seed n k tdma ft frozen remaps slot shuffle)
      QCheck.Gen.(
        triple
          (triple (int_bound 10_000) (int_range 2 30) (int_range 1 4))
          (quad bool bool bool (int_bound 12))
          (pair
             (oneof [ return Ftes_workload.Gen.default.tdma_slot;
                      float_range 1. 9. ])
             bool))
  in
  [
    Helpers.qtest ~count:1000 "matches the list-based oracle bit for bit" arb
      (fun ((seed, n, k), (tdma, ft, frozen, remaps), (slot, shuffle)) ->
        let bus = if tdma then Ftes_workload.Gen.Tdma else Single in
        let nodes = 2 + (seed mod 3) in
        let slot_order =
          if not shuffle then None
          else begin
            let order = Array.init nodes Fun.id in
            Ftes_util.Rng.shuffle (Ftes_util.Rng.create (seed + 3)) order;
            Some order
          end
        in
        let p =
          Helpers.random_problem ~processes:n ~nodes ~k ~seed ~frozen ~bus
            ~tdma_slot:slot ?slot_order ()
        in
        matches_oracle ~ft (remapped ~seed ~remaps p));
    Helpers.qtest ~count:150 "one scratch = fresh scratch" scratch_arb
      scratch_reused;
  ]

(* Five processes on two nodes, built to reach the corners of the
   lanes: P1 and P4 take no time (zero WCET, zero overheads), m2 and m5
   carry nothing, m1 and m6 are longer than a TDMA slot of [slot], and
   the replicas of P0 and P2 share a node. *)
let edge_problem ~bus ~k ~frozen =
  let b = Ftes_app.Graph.Builder.create () in
  let ov = Ftes_app.Overheads.make ~alpha:1. ~mu:2. ~chi:0.5 in
  let p0 = Ftes_app.Graph.Builder.add_process b ~overheads:ov ~name:"P0" in
  let p1 = Ftes_app.Graph.Builder.add_process b ~name:"P1" in
  let p2 = Ftes_app.Graph.Builder.add_process b ~overheads:ov ~name:"P2" in
  let p3 = Ftes_app.Graph.Builder.add_process b ~overheads:ov ~name:"P3" in
  let p4 = Ftes_app.Graph.Builder.add_process b ~release:3. ~name:"P4" in
  let msg src dst size =
    ignore (Ftes_app.Graph.Builder.add_message b ~src ~dst ~size)
  in
  msg p0 p1 7.;
  msg p0 p2 0.;
  msg p1 p3 3.;
  msg p2 p3 1.;
  msg p3 p4 0.;
  msg p0 p4 12.;
  let graph = Ftes_app.Graph.Builder.build b in
  let transparency =
    if frozen then
      Ftes_app.Transparency.of_list
        Ftes_app.Transparency.[ Proc p2; Msg 0; Msg 5 ]
    else Ftes_app.Transparency.none
  in
  let app =
    Ftes_app.App.make ~transparency ~graph ~deadline:1e6 ~period:1e6 ()
  in
  let arch = Ftes_arch.Arch.make ~node_count:2 ~bus () in
  let wcet = Ftes_arch.Wcet.create ~procs:5 ~nodes:2 in
  List.iteri
    (fun pid (c0, c1) ->
      Ftes_arch.Wcet.set wcet ~pid ~nid:0 c0;
      Ftes_arch.Wcet.set wcet ~pid ~nid:1 c1)
    [ (10., 12.); (0., 0.); (8., 5.); (6., 9.); (0., 4.) ];
  let policies =
    [|
      Policy.replication ~k;
      Policy.re_execution ~recoveries:k;
      Policy.replication ~k;
      Policy.checkpointing ~recoveries:k ~checkpoints:2;
      Policy.re_execution ~recoveries:k;
    |]
  in
  let mapping =
    Ftes_ftcpg.Mapping.of_array
      [|
        Array.make (k + 1) 0;
        [| 1 |];
        Array.init (k + 1) (fun c -> if c = 0 then 0 else 1);
        [| 0 |];
        [| 0 |];
      |]
  in
  Problem.make ~app ~arch ~wcet ~k ~policies ~mapping

(* Pairs of identical processes: equal priorities, so the ready queue's
   tie-break (lower pid first) decides the schedule. *)
let twins_problem ~bus ~k =
  let b = Ftes_app.Graph.Builder.create () in
  let ov = Ftes_app.Overheads.make ~alpha:1. ~mu:1. ~chi:1. in
  let ps =
    Array.init 6 (fun i ->
        Ftes_app.Graph.Builder.add_process b ~overheads:ov
          ~name:(Printf.sprintf "T%d" i))
  in
  List.iter
    (fun (src, dst) ->
      ignore
        (Ftes_app.Graph.Builder.add_message b ~src:ps.(src) ~dst:ps.(dst)
           ~size:4.))
    [ (0, 2); (1, 3) ];
  let graph = Ftes_app.Graph.Builder.build b in
  let app = Ftes_app.App.make ~graph ~deadline:1e6 ~period:1e6 () in
  let arch = Ftes_arch.Arch.make ~node_count:2 ~bus () in
  let wcet = Ftes_arch.Wcet.create ~procs:6 ~nodes:2 in
  for pid = 0 to 5 do
    for nid = 0 to 1 do
      Ftes_arch.Wcet.set wcet ~pid ~nid 10.
    done
  done;
  let policies = Problem.default_policies ~app ~k in
  let mapping =
    Ftes_ftcpg.Mapping.of_array (Array.init 6 (fun pid -> [| pid mod 2 |]))
  in
  Problem.make ~app ~arch ~wcet ~k ~policies ~mapping

let slot = 2.

let test_slack_oracle_edges () =
  let buses =
    [
      ("tdma", Bus.tdma ~slot_length:slot ~bandwidth:1. 2);
      ("tdma swapped", Bus.tdma ~slot_order:[| 1; 0 |] ~slot_length:slot
                         ~bandwidth:1. 2);
      ("single", Bus.single ~setup:0.5 ~bandwidth:1. ());
    ]
  in
  List.iter
    (fun (name, bus) ->
      List.iter
        (fun (k, frozen, ft) ->
          let p = edge_problem ~bus ~k ~frozen in
          let label =
            Printf.sprintf "%s k=%d frozen=%b ft=%b" name k frozen ft
          in
          Alcotest.(check bool) label true (matches_oracle ~ft p);
          let r = Slack.evaluate ~ft p in
          Alcotest.(check bool) (label ^ ": zero-duration copy") true
            (List.exists
               (fun (pl : Slack.placement) ->
                 pl.Slack.pid = 1 && pl.Slack.finish = pl.Slack.start)
               r.Slack.placements);
          Alcotest.(check bool) (label ^ ": zero-size message off the bus")
            true
            (List.for_all
               (fun (mp : Slack.msg_placement) ->
                 mp.Slack.mid <> 1 || not mp.Slack.on_bus)
               r.Slack.msg_placements);
          if Bus.is_tdma bus then
            Alcotest.(check bool) (label ^ ": message spans rounds") true
              (List.exists
                 (fun (mp : Slack.msg_placement) ->
                   mp.Slack.on_bus
                   && mp.Slack.finish -. mp.Slack.start > 2. *. slot)
                 r.Slack.msg_placements))
        [
          (1, false, true); (1, true, true); (2, false, true);
          (3, true, true); (2, true, false); (1, false, false);
        ];
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "%s twins k=%d" name k)
            true
            (matches_oracle (twins_problem ~bus ~k)))
        [ 1; 2 ])
    buses

(* Four universes over one graph: a TDMA base, the same bus with the
   WCET order reversed, the base WCETs on a single bus whose setup and
   bandwidth change every transmission time, and the base with nothing
   frozen. The estimator keeps its tables (priorities, WCETs, frozen
   flags, transmission times) per domain and universe; evaluations
   alternate between the universes, so a stale table would schedule
   with another universe's priorities, WCETs, bus or transparency. *)
let memo_universes () =
  let base = Helpers.random_problem ~processes:14 ~nodes:3 ~k:2 ~seed:41 () in
  let variant ?(app = base.Problem.app) ~arch ~wcet () =
    Problem.make ~app ~arch ~wcet ~k:2 ~policies:base.Problem.policies
      ~mapping:base.Problem.mapping
  in
  [|
    base;
    variant ~arch:base.Problem.arch
      ~wcet:(Ftes_arch.Wcet.map (fun c -> 120. -. c) base.Problem.wcet)
      ();
    variant
      ~arch:
        (Ftes_arch.Arch.make ~node_count:3
           ~bus:(Bus.single ~setup:15. ~bandwidth:0.25 ())
           ())
      ~wcet:base.Problem.wcet ();
    variant
      ~app:
        (Ftes_app.App.with_transparency base.Problem.app
           Ftes_app.Transparency.none)
      ~arch:base.Problem.arch ~wcet:base.Problem.wcet ();
  |]

let test_slack_priority_memo () =
  let universes = memo_universes () in
  let order = [ 0; 1; 0; 2; 1; 3; 2; 0; 3; 2; 1; 1; 3; 0; 0; 2 ] in
  let tasks =
    List.concat_map
      (fun remaps ->
        List.mapi
          (fun i u ->
            (remapped ~seed:(remaps + i) ~remaps universes.(u), i mod 3 <> 2))
          order)
      [ 0; 3 ]
  in
  let check (p, ft) = matches_oracle ~ft p in
  List.iteri
    (fun i task ->
      Alcotest.(check bool) (Printf.sprintf "one domain, evaluation %d" i) true
        (check task))
    tasks;
  List.iteri
    (fun i ok ->
      Alcotest.(check bool) (Printf.sprintf "jobs 4, evaluation %d" i) true ok)
    (Ftes_util.Par.map ~jobs:4 check tasks)

(* Minor-heap words per evaluation on a fixed 40-process TDMA design
   with every process actively replicated, k = 3 (512 bus
   transmissions). The counts are deterministic for a given compiler and
   build profile.

   [Slack.evaluate]: the bound is 1.5x the 17,061 words measured once
   the estimator ran on per-universe tables and a per-domain scratch;
   it was 56,558 (1.5x 37,705) when every evaluation rebuilt its tables
   and placement records, and 181,413 words with the bus walk that
   boxed a window per reservation it passes.

   [Slack.length], the optimizer path, builds no placement lists: the
   bound is 1.5x the 7,682 words measured, the floats boxed across the
   calls into [Lane] and [Fttime]. Rebuilding the lists or the tables on
   this path fails here long before it shows in a timing. *)
let slack_alloc_bound = 25_592.
let slack_length_alloc_bound = 11_523.

let replicated_design () =
  let k = 3 in
  let p =
    Ftes_workload.Gen.problem ~k
      { Ftes_workload.Gen.default with processes = 40; nodes = 3; seed = 17 }
  in
  let policies =
    Array.make (Array.length p.Problem.policies) (Policy.replication ~k)
  in
  Problem.with_policies p policies
    (Problem.fastest_mapping ~app:p.Problem.app ~wcet:p.Problem.wcet
       ~policies)

let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let reps = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let check_words what words bound =
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per %s <= %.0f" words what bound)
    true (words <= bound)

let test_slack_allocation () =
  let p = replicated_design () in
  check_words "evaluation" (words_per_call (fun () -> Slack.evaluate p))
    slack_alloc_bound

let test_slack_length_allocation () =
  let p = replicated_design () in
  check_words "length" (words_per_call (fun () -> Slack.length p))
    slack_length_alloc_bound

(* ------------------------------------------------------------------ *)
(* Metamorphic invariants                                              *)
(* ------------------------------------------------------------------ *)

(* A bus-free instance (zero-size messages) built directly, so both the
   WCET table and the per-process overheads can be scaled exactly. *)
let bus_free_instance ?(nodes = 2) ~seed ~n ~k ~scale () =
  let rng = Ftes_util.Rng.create seed in
  let b = Ftes_app.Graph.Builder.create () in
  for i = 0 to n - 1 do
    let base = 5. +. Ftes_util.Rng.float rng 50. in
    ignore
      (Ftes_app.Graph.Builder.add_process b
         ~overheads:
           (Ftes_app.Overheads.make
              ~alpha:(scale *. base /. 10.)
              ~mu:(scale *. base /. 10.)
              ~chi:(scale *. base /. 20.))
         ~name:(Printf.sprintf "P%d" (i + 1)))
  done;
  for dst = 1 to n - 1 do
    let src = Ftes_util.Rng.int rng dst in
    ignore (Ftes_app.Graph.Builder.add_message b ~src ~dst ~size:0.)
  done;
  let graph = Ftes_app.Graph.Builder.build b in
  let app = Ftes_app.App.make ~graph ~deadline:1e9 ~period:1e9 () in
  let arch =
    Ftes_arch.Arch.make ~node_count:nodes
      ~bus:(Ftes_arch.Arch.default_bus ~node_count:nodes)
      ()
  in
  let wcet = Ftes_arch.Wcet.create ~procs:n ~nodes in
  let rng2 = Ftes_util.Rng.create (seed + 1) in
  for pid = 0 to n - 1 do
    for nid = 0 to nodes - 1 do
      Ftes_arch.Wcet.set wcet ~pid ~nid
        (scale *. (10. +. Ftes_util.Rng.float rng2 50.))
    done
  done;
  let policies = Problem.default_policies ~app ~k in
  let mapping = Problem.fastest_mapping ~app ~wcet ~policies in
  Problem.make ~app ~arch ~wcet ~k ~policies ~mapping

let metamorphic_props =
  let arb =
    QCheck.make
      ~print:(fun (seed, n, k) -> Printf.sprintf "seed=%d n=%d k=%d" seed n k)
      QCheck.Gen.(triple (int_bound 10_000) (int_range 2 10) (int_range 0 2))
  in
  [
    Helpers.qtest ~count:50
      "scaling all execution times by c scales the estimate by c" arb
      (fun (seed, n, k) ->
        let p1 = bus_free_instance ~seed ~n ~k ~scale:1. () in
        let p3 = bus_free_instance ~seed ~n ~k ~scale:3. () in
        Float.abs ((3. *. Slack.length p1) -. Slack.length p3)
        < 1e-6 *. Slack.length p3);
    Helpers.qtest ~count:25
      "scaling scales the conditional worst case too" arb
      (fun (seed, n, k) ->
        (* One node: condition broadcasts vanish, so the schedule has no
           unscaled bus artifacts. *)
        let n = min n 7 in
        let p1 = bus_free_instance ~nodes:1 ~seed ~n ~k ~scale:1. () in
        let p2 = bus_free_instance ~nodes:1 ~seed ~n ~k ~scale:2. () in
        let len p = Table.schedule_length (Conditional.schedule (Ftcpg.build p)) in
        Float.abs ((2. *. len p1) -. len p2) < 1e-6 *. len p2);
    Helpers.qtest ~count:50 "swapping the two nodes leaves the estimate unchanged"
      arb
      (fun (seed, n, k) ->
        (* Zero-size messages make the TDMA slot order irrelevant, so
           the platform is symmetric under node renaming. *)
        let p = bus_free_instance ~seed ~n ~k ~scale:1. () in
        let wcet2 = Ftes_arch.Wcet.copy p.Problem.wcet in
        for pid = 0 to n - 1 do
          let a = Ftes_arch.Wcet.get_exn p.Problem.wcet ~pid ~nid:0 in
          let c = Ftes_arch.Wcet.get_exn p.Problem.wcet ~pid ~nid:1 in
          Ftes_arch.Wcet.set wcet2 ~pid ~nid:0 c;
          Ftes_arch.Wcet.set wcet2 ~pid ~nid:1 a
        done;
        let mapping2 =
          Ftes_ftcpg.Mapping.of_array
            (Array.init n (fun pid ->
                 Array.of_list
                   (List.map
                      (fun nid -> 1 - nid)
                      (Ftes_ftcpg.Mapping.copies p.Problem.mapping ~pid))))
        in
        let p2 =
          Problem.make ~app:p.Problem.app ~arch:p.Problem.arch ~wcet:wcet2
            ~k:p.Problem.k ~policies:p.Problem.policies ~mapping:mapping2
        in
        Float.abs (Slack.length p -. Slack.length p2) < 1e-6);
  ]

let () =
  Alcotest.run "sched"
    [
      ( "timeline",
        [
          Alcotest.test_case "basics" `Quick test_timeline_basics;
          Alcotest.test_case "gaps" `Quick test_timeline_gap;
          Alcotest.test_case "busy until" `Quick test_timeline_busy_until;
          Alcotest.test_case "touching intervals" `Quick
            test_timeline_touching_intervals;
          Alcotest.test_case "gap edge cases" `Quick test_timeline_gap_edges;
        ]
        @ timeline_props );
      ( "busalloc",
        [
          Alcotest.test_case "tdma lanes" `Quick test_busalloc_tdma_lanes;
          Alcotest.test_case "probe matches place" `Quick
            test_busalloc_probe_matches_place;
          Alcotest.test_case "zero size" `Quick test_busalloc_zero_size;
        ] );
      ( "lane",
        [ Alcotest.test_case "undo restores" `Quick test_lane_undo_restores ]
        @ lane_props );
      ( "conditional",
        [
          Alcotest.test_case "fig6 lengths" `Quick test_fig6_lengths;
          Alcotest.test_case "frozen single start" `Quick
            test_fig6_frozen_single_start;
          Alcotest.test_case "deterministic" `Quick test_fig6_deterministic;
          Alcotest.test_case "golden tables (pqueue rewrite)" `Quick
            test_fig6_golden_tables;
          Alcotest.test_case "k=0 degenerates" `Quick test_conditional_k0;
          Alcotest.test_case "deadline violations" `Quick
            test_conditional_deadline_violation;
          Alcotest.test_case "track cap" `Quick test_conditional_track_cap;
          Alcotest.test_case "incremental matches reference (fig5)" `Quick
            test_incremental_matches_reference_fig5;
          Alcotest.test_case "conditional allocation per schedule" `Quick
            test_conditional_allocation;
        ]
        @ sched_props );
      ( "table",
        [
          Alcotest.test_case "complementary literals only" `Quick
            test_assembly_complementary_only;
          Alcotest.test_case "non-confluent slot (pinned order)" `Quick
            test_assembly_non_confluent;
        ]
        @ assembly_props );
      ( "slack",
        [
          Alcotest.test_case "fig5" `Quick test_slack_fig5;
          Alcotest.test_case "k=0 no slack" `Quick test_slack_k0_no_slack;
          Alcotest.test_case "fto" `Quick test_slack_fto;
          Alcotest.test_case "oracle edge cases" `Quick
            test_slack_oracle_edges;
          Alcotest.test_case "priority memo across universes" `Quick
            test_slack_priority_memo;
          Alcotest.test_case "allocation per evaluation" `Quick
            test_slack_allocation;
          Alcotest.test_case "optimizer-path allocation per length" `Quick
            test_slack_length_allocation;
        ]
        @ slack_props @ oracle_props );
      ("metamorphic", metamorphic_props);
    ]
