(* Unit and property tests for Ftes_util: RNG, priority queue,
   statistics, ASCII rendering. *)

module Rng = Ftes_util.Rng
module Stats = Ftes_util.Stats
module Chart = Ftes_util.Chart

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 16 (fun _ -> Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "different seeds diverge" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a)
    (Rng.bits64 b)

let test_rng_split () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split streams diverge" true (xs <> ys)

let test_rng_shuffle_multiset () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample () =
  let rng = Rng.create 9 in
  let xs = List.init 20 (fun i -> i) in
  let s = Rng.sample rng 8 xs in
  Alcotest.(check int) "size" 8 (List.length s);
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare s));
  let s2 = Rng.sample rng 50 xs in
  Alcotest.(check int) "capped at length" 20 (List.length s2)

let test_rng_pick_empty () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "pick_list []" (Invalid_argument "Rng.pick_list: empty list")
    (fun () -> ignore (Rng.pick_list rng []))

let test_rng_sample_edges () =
  let rng = Rng.create 5 in
  Alcotest.(check (list int)) "empty population" [] (Rng.sample rng 5 []);
  Alcotest.(check (list int)) "zero draws" [] (Rng.sample rng 0 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "n > population is a permutation" [ 1; 2; 3 ]
    (List.sort compare (Rng.sample rng 50 [ 1; 2; 3 ]));
  Alcotest.(check (list int)) "n = population is a permutation" [ 1; 2; 3 ]
    (List.sort compare (Rng.sample rng 3 [ 1; 2; 3 ]))

let test_rng_chance_extremes () =
  let rng = Rng.create 11 in
  for _ = 1 to 32 do
    Alcotest.(check bool) "p = 0. never" false (Rng.chance rng 0.);
    Alcotest.(check bool) "p = 1. always" true (Rng.chance rng 1.)
  done

let test_rng_chance_stream_alignment () =
  (* chance consumes exactly one draw regardless of [p], so varying the
     probability must not shift the stream seen by later draws. *)
  let a = Rng.create 11 and b = Rng.create 11 in
  ignore (Rng.chance a 0.);
  ignore (Rng.chance b 1.);
  Alcotest.(check bool) "stream aligned after chance" true
    (List.init 8 (fun _ -> Rng.bits64 a)
    = List.init 8 (fun _ -> Rng.bits64 b))

let rng_props =
  [
    Helpers.qtest "int bound respected"
      QCheck.(pair (int_bound 10_000) (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Helpers.qtest "int_in inclusive bounds"
      QCheck.(triple (int_bound 10_000) (int_range (-100) 100) (int_bound 200))
      (fun (seed, lo, span) ->
        let rng = Rng.create seed in
        let v = Rng.int_in rng lo (lo + span) in
        v >= lo && v <= lo + span);
    Helpers.qtest "float bound respected"
      QCheck.(pair (int_bound 10_000) (float_range 0.001 1000.))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.float rng bound in
        v >= 0. && v < bound);
    Helpers.qtest "chance extremes"
      QCheck.(int_bound 10_000)
      (fun seed ->
        let rng = Rng.create seed in
        (not (Rng.chance rng 0.)) && Rng.chance rng 1.);
  ]

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_pqueue_basic () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Pqueue.push q 3;
  Pqueue.push q 1;
  Pqueue.push q 2;
  Alcotest.(check int) "length" 3 (Pqueue.length q);
  Alcotest.(check (option int)) "peek" (Some 1) (Pqueue.peek q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Pqueue.pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Pqueue.pop q);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Pqueue.pop q);
  Alcotest.(check (option int)) "pop empty" None (Pqueue.pop q)

let test_pqueue_pop_exn () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Pqueue.pop_exn: empty queue") (fun () ->
      ignore (Pqueue.pop_exn q))

let test_pqueue_to_sorted_non_destructive () =
  let q = Pqueue.of_list ~cmp:compare [ 5; 1; 4 ] in
  Alcotest.(check (list int)) "sorted" [ 1; 4; 5 ] (Pqueue.to_sorted_list q);
  Alcotest.(check int) "queue intact" 3 (Pqueue.length q)

let pqueue_props =
  [
    Helpers.qtest "drains in sorted order"
      QCheck.(list int)
      (fun xs ->
        let q = Pqueue.of_list ~cmp:compare xs in
        let rec drain acc =
          match Pqueue.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
        in
        drain [] = List.sort compare xs);
    Helpers.qtest "iter_unordered visits all"
      QCheck.(list small_int)
      (fun xs ->
        let q = Pqueue.of_list ~cmp:compare xs in
        let seen = ref [] in
        Pqueue.iter_unordered (fun x -> seen := x :: !seen) q;
        List.sort compare !seen = List.sort compare xs);
  ]

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  Helpers.check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Helpers.check_float "mean empty" 0. (Stats.mean [])

let test_stats_stdev () =
  Helpers.check_float "stdev" 1. (Stats.stdev [ 1.; 2.; 3. ]);
  Helpers.check_float "stdev single" 0. (Stats.stdev [ 5. ])

let test_stats_median () =
  Helpers.check_float "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Helpers.check_float "even" 2.5 (Stats.median [ 1.; 4.; 2.; 3. ])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [ 3.; -1.; 7. ] in
  Helpers.check_float "min" (-1.) lo;
  Helpers.check_float "max" 7. hi;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.min_max: empty list")
    (fun () -> ignore (Stats.min_max []))

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Helpers.check_float "p50" 50. (Stats.percentile 50. xs);
  Helpers.check_float "p100" 100. (Stats.percentile 100. xs)

let test_stats_percentile_edges () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Helpers.check_float "p0" 1. (Stats.percentile 0. xs);
  Helpers.check_float "p1" 1. (Stats.percentile 1. xs);
  Helpers.check_float "p99" 99. (Stats.percentile 99. xs);
  Helpers.check_float "single sample" 7. (Stats.percentile 50. [ 7. ]);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile 50. []))

let test_stats_histogram () =
  (* Bucket i spans (bounds.(i-1), bounds.(i)]; the last cell counts
     overflow above the final bound. *)
  Alcotest.(check (array int))
    "counts" [| 2; 2; 1; 1 |]
    (Stats.histogram ~bounds:[ 1.; 10.; 100. ]
       [ 0.5; 1.; 1.5; 10.; 50.; 1000. ]);
  Alcotest.(check (array int))
    "boundary value lands in the lower bucket" [| 1; 0; 0; 0 |]
    (Stats.histogram ~bounds:[ 5.; 6.; 7. ] [ 5. ]);
  Alcotest.(check (array int))
    "no samples" [| 0; 0 |]
    (Stats.histogram ~bounds:[ 1. ] []);
  Alcotest.check_raises "empty bounds"
    (Invalid_argument "Stats.histogram: empty bounds") (fun () ->
      ignore (Stats.histogram ~bounds:[] [ 1. ]));
  Alcotest.check_raises "unsorted bounds"
    (Invalid_argument "Stats.histogram: bounds not strictly increasing")
    (fun () -> ignore (Stats.histogram ~bounds:[ 2.; 1. ] [ 1. ]));
  Alcotest.check_raises "duplicate bounds"
    (Invalid_argument "Stats.histogram: bounds not strictly increasing")
    (fun () -> ignore (Stats.histogram ~bounds:[ 1.; 1. ] [ 1. ]))

let test_stats_percent_deviation () =
  Helpers.check_float "deviation" 50. (Stats.percent_deviation ~baseline:100. 150.);
  Helpers.check_float "zero baseline" 0. (Stats.percent_deviation ~baseline:0. 5.)

let stats_props =
  [
    Helpers.qtest "mean within min/max"
      QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
      (fun xs ->
        let lo, hi = Stats.min_max xs in
        let m = Stats.mean xs in
        m >= lo -. 1e-6 && m <= hi +. 1e-6);
    Helpers.qtest "stdev non-negative"
      QCheck.(list (float_range (-100.) 100.))
      (fun xs -> Stats.stdev xs >= 0.);
    Helpers.qtest "histogram counts every sample once"
      QCheck.(list (float_range (-10.) 1000.))
      (fun xs ->
        Array.fold_left ( + ) 0
          (Stats.histogram ~bounds:[ 0.; 1.; 10.; 100. ] xs)
        = List.length xs);
  ]

(* ------------------------------------------------------------------ *)
(* Chart                                                               *)
(* ------------------------------------------------------------------ *)

let test_chart_table () =
  let s =
    Chart.render_table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ]
  in
  Alcotest.(check bool) "contains cell" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.length >= 4);
  (* Short rows are padded. *)
  Alcotest.(check bool) "padded row" true
    (List.exists
       (fun line -> String.length line > 0 && String.sub line 0 3 = "333")
       (String.split_on_char '\n' s))

let test_chart_line () =
  let s =
    Chart.render_chart ~x_label:"x" ~xs:[ 1.; 2.; 3. ]
      ~series:[ ("up", [ 1.; 2.; 3. ]); ("down", [ 3.; 2.; 1. ]) ]
      ()
  in
  Alcotest.(check bool) "has legend" true
    (String.length s > 0
    && List.exists
         (fun line ->
           String.length line >= 7 && String.sub line 0 7 = "legend:")
         (String.split_on_char '\n' s))

let test_chart_errors () =
  Alcotest.check_raises "empty xs"
    (Invalid_argument "Chart.render_chart: empty xs") (fun () ->
      ignore (Chart.render_chart ~x_label:"x" ~xs:[] ~series:[ ("a", []) ] ()));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Chart.render_chart: series a length mismatch")
    (fun () ->
      ignore
        (Chart.render_chart ~x_label:"x" ~xs:[ 1. ] ~series:[ ("a", []) ] ()))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "shuffle multiset" `Quick test_rng_shuffle_multiset;
          Alcotest.test_case "sample" `Quick test_rng_sample;
          Alcotest.test_case "sample edge cases" `Quick test_rng_sample_edges;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "chance stream alignment" `Quick
            test_rng_chance_stream_alignment;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty;
        ]
        @ rng_props );
      ( "pqueue",
        [
          Alcotest.test_case "basic" `Quick test_pqueue_basic;
          Alcotest.test_case "pop_exn" `Quick test_pqueue_pop_exn;
          Alcotest.test_case "to_sorted non-destructive" `Quick
            test_pqueue_to_sorted_non_destructive;
        ]
        @ pqueue_props );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stdev" `Quick test_stats_stdev;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile edges" `Quick
            test_stats_percentile_edges;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "percent deviation" `Quick
            test_stats_percent_deviation;
        ]
        @ stats_props );
      ( "chart",
        [
          Alcotest.test_case "table" `Quick test_chart_table;
          Alcotest.test_case "line chart" `Quick test_chart_line;
          Alcotest.test_case "errors" `Quick test_chart_errors;
        ] );
    ]
