(* Wall-clock gates: the instrumentation overhead bound and the two
   parallel speedups. They compare wall clocks, so another process on
   the same cores skews them; `dune runtest` runs the test suites side
   by side, and the overhead bound failed there 3 times in 10 on a
   2-vCPU host while holding 10 times in 10 alone. They therefore live
   in this executable, outside the `runtest` alias, and CI runs it on
   its own:

     dune exec test/timing/timing_gates.exe

   The speedup gates need real cores behind the pool: below 4 cores
   they skip with the reason printed. *)

module Events = Ftes_util.Events
module Telemetry = Ftes_util.Telemetry
module Strategy = Ftes_optim.Strategy
module Tabu = Ftes_optim.Tabu
module Evalcache = Ftes_optim.Evalcache
module E = Ftes_core.Experiments

let cores = Domain.recommended_domain_count ()

let skip_below_4_cores () = if cores < 4 then Alcotest.skip ()

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Recording overhead: nft baseline + MXR with the one switch off/on   *)
(* ------------------------------------------------------------------ *)

let test_recording_overhead () =
  (* Quiesce the domain pool: even parked domains take part in every
     stop-the-world minor collection, which roughly doubles the wall
     time of this sequential search and drowns the effect being
     measured. The pool re-arms on the next fan-out. *)
  Ftes_util.Par.shutdown ();
  let app, arch, wcet =
    Ftes_workload.Gen.instance
      { Ftes_workload.Gen.default with processes = 25; nodes = 3; seed = 29 }
  in
  let inputs = { Strategy.app; arch; wcet; k = 2 } in
  (* Sequential: sub-second searches on a domain pool swing with host
     scheduling far more than with the recording overhead. Sized so a
     run takes tens of milliseconds — the per-rep noise floor on a busy
     1-core host is a couple of milliseconds, which must stay well
     inside the asserted bound. *)
  let opts = { Tabu.default_options with Tabu.iterations = 120; jobs = 1 } in
  let run_once () =
    let nft = Strategy.nft_length ~opts inputs in
    Strategy.run ~opts ~nft inputs Strategy.MXR
  in
  (* The "on" configuration is everything the switch turns on — spans,
     counters, gauges, histograms and events — plus one in-process sink
     that counts incumbents and span ends: the shape a live progress
     consumer has, without disk I/O. *)
  let incumbents = ref 0 and spans = ref 0 in
  let capture (e : Events.event) =
    match e.Events.payload with
    | Events.Incumbent _ -> incr incumbents
    | Events.Span_end _ -> incr spans
    | _ -> ()
  in
  Events.disable ();
  ignore (run_once ());
  (* One search takes a few tens of milliseconds, where a single
     scheduler hiccup is worth more than the bound, so each timed sample
     sums searches until it reaches 0.25 s. Within a pair the off and
     on searches alternate one by one, so a slow stretch of the host
     lands on both sides alike; both sides then run the same number of
     searches, and a sample is its side's mean wall time per search. *)
  let min_sample_s = 0.25 in
  (* Paired off/on samples; the ratio of per-side minima is taken
     below, which is robust to one-sided scheduler noise. *)
  let reps = 7 in
  let dropped = ref 0 in
  let sink = Events.add_sink capture in
  let rec pair n off on =
    Events.disable ();
    let r_off, w_off = time run_once in
    Telemetry.reset ();
    Events.enable ();
    let r_on, w_on = time run_once in
    Events.drain ();
    dropped := !dropped + Events.dropped ();
    let n = n + 1 and off = off +. w_off and on = on +. w_on in
    if off < min_sample_s || on < min_sample_s then pair n off on
    else ((r_off, r_on), off /. float_of_int n, on /. float_of_int n, n)
  in
  let pairs = List.init reps (fun _ -> pair 0 0. 0.) in
  Events.remove_sink sink;
  Events.disable ();
  (* Scheduler noise only ever adds time, so the minimum over reps is
     the most stable estimate of each side's true cost — medians of
     paired ratios swing +/-10% on a loaded single-core host, which is
     wider than the bound being asserted. *)
  let minimum = List.fold_left min infinity in
  let wall_off = minimum (List.map (fun (_, w, _, _) -> w) pairs) in
  let wall_on = minimum (List.map (fun (_, _, w, _) -> w) pairs) in
  let searches = List.fold_left (fun acc (_, _, _, n) -> acc + n) 0 pairs in
  let overhead_pct = ((wall_on /. wall_off) -. 1.) *. 100. in
  let (off, on), _, _, _ = List.hd pairs in
  Alcotest.(check bool) "recording leaves the search unchanged" true
    (off.Strategy.length = on.Strategy.length
    && Evalcache.signature off.Strategy.problem
       = Evalcache.signature on.Strategy.problem);
  Alcotest.(check int) "no record dropped" 0 !dropped;
  Alcotest.(check bool) "incumbents captured" true (!incumbents >= 1);
  Alcotest.(check bool) "spans recorded" true (!spans >= 1);
  (* Well above what recording actually costs, well below anything
     that would signal recording on the off path or a sink doing
     per-record work it should not. *)
  let bound_pct = 5.0 in
  Printf.printf
    "recording off %.4f s, on %.4f s per search (%d searches per side, \
     %d spans): overhead %+.2f%% (bound %.1f%%)\n"
    wall_off wall_on searches !spans overhead_pct bound_pct;
  if overhead_pct > bound_pct then
    Alcotest.failf "recording overhead %+.2f%% exceeds the %.1f%% bound"
      overhead_pct bound_pct

(* ------------------------------------------------------------------ *)
(* Packed validation: jobs=4 against jobs=1                            *)
(* ------------------------------------------------------------------ *)

let test_validate_speedup () =
  skip_below_4_cores ();
  let p =
    Ftes_workload.Gen.problem ~k:4
      { Ftes_workload.Gen.default with processes = 10; nodes = 2; seed = 11 }
  in
  let table = Ftes_sched.Conditional.schedule (Ftes_ftcpg.Ftcpg.build p) in
  let validate jobs () = Ftes_sim.Sim.validate ~jobs table in
  (* A single pass is short; calibrate a repetition count off a jobs=1
     warmup so each timed point aggregates ~0.25 s of work. *)
  let _, warm = time (validate 1) in
  let reps =
    max 1 (min 1000 (int_of_float (Float.ceil (0.25 /. Float.max warm 1e-6))))
  in
  let mean_wall jobs =
    let total = ref 0. in
    for _ = 1 to reps do
      total := !total +. snd (time (validate jobs))
    done;
    !total /. float_of_int reps
  in
  let w1 = mean_wall 1 in
  let w4 = mean_wall 4 in
  let speedup = w1 /. Float.max w4 1e-9 in
  Printf.printf "validate jobs=1 %.5f s, jobs=4 %.5f s: speedup %.2fx (%d reps)\n"
    w1 w4 speedup reps;
  (* The packed validator's jobs=4 point ran >= 2.5x jobs=1 on a 4-core
     host; 1.5x absorbs runner noise. *)
  if speedup < 1.5 then
    Alcotest.failf "validate jobs=4 speedup %.2fx is below 1.5x" speedup

(* ------------------------------------------------------------------ *)
(* Portfolio race against its own sequential replay                    *)
(* ------------------------------------------------------------------ *)

let test_portfolio_speedup () =
  (* Five members race; widen the race to the core count (up to the
     member count) so the speedup reflects the hardware. *)
  let jobs = max 2 (min cores 5) in
  let races =
    E.fig7_portfolio ~jobs ~seeds_per_point:1 ~sizes:[ 20 ]
      ~tabu:{ Tabu.default_options with Tabu.iterations = 25 }
      ()
  in
  (* Deterministic mode: the race never loses to the best member of its
     own sequential replay. *)
  List.iter
    (fun (r : E.race) ->
      Format.printf "%a@." E.pp_race r;
      Alcotest.(check bool)
        (Printf.sprintf "size %d seed %d: match or beat" r.E.size r.E.seed)
        true
        (r.E.portfolio_length <= r.E.best_single +. 1e-6))
    races;
  skip_below_4_cores ();
  (* Perfect scaling of 5 members would give ~2.5x; 2x absorbs runner
     noise. *)
  List.iter
    (fun (r : E.race) ->
      if r.E.speedup < 2.0 then
        Alcotest.failf "size %d seed %d: race speedup %.2fx is below 2.0x"
          r.E.size r.E.seed r.E.speedup)
    races

(* ------------------------------------------------------------------ *)
(* Portfolio race: jobs=2 against jobs=1                               *)
(* ------------------------------------------------------------------ *)

let test_race_jobs2_vs_jobs1 () =
  if cores < 2 then Alcotest.skip ();
  let module Portfolio = Ftes_optim.Portfolio in
  let module Par = Ftes_util.Par in
  let instances =
    List.map
      (fun (processes, nodes, seed) ->
        let app, arch, wcet =
          Ftes_workload.Gen.instance
            { Ftes_workload.Gen.default with processes; nodes; seed }
        in
        { Strategy.app; arch; wcet; k = 2 })
      [ (12, 2, 401); (14, 3, 402); (16, 2, 403) ]
  in
  let race jobs inputs =
    Portfolio.run
      ~opts:
        {
          Portfolio.jobs;
          deadline_s = None;
          exchange = false;
          cache = None;
          tabu = { Tabu.default_options with Tabu.iterations = 20; jobs = 1 };
        }
      inputs
  in
  (* jobs=1 runs with no pool, so parked domains do not tax it; jobs=2
     runs on a started pool, so it does not pay the domain spawn. *)
  let timed jobs inputs =
    if jobs = 1 then Par.shutdown ()
    else ignore (Par.map ~jobs Fun.id (List.init jobs Fun.id));
    time (fun () -> race jobs inputs)
  in
  let pairs = 5 in
  let minimum = List.fold_left min infinity in
  let totals =
    List.map
      (fun inputs ->
        let samples =
          List.init pairs (fun p ->
              (* Alternate which side runs first. *)
              if p mod 2 = 0 then
                let one = timed 1 inputs in
                (one, timed 2 inputs)
              else
                let two = timed 2 inputs in
                (timed 1 inputs, two))
        in
        let (r1, _), (r2, _) = List.hd samples in
        let lengths (r : Portfolio.result) =
          List.map (fun (o : Portfolio.member_outcome) -> o.Portfolio.length)
            r.Portfolio.members
        in
        Alcotest.(check string) "same winner"
          r1.Portfolio.winner.Portfolio.member.Portfolio.label
          r2.Portfolio.winner.Portfolio.member.Portfolio.label;
        Alcotest.(check (list (float 0.))) "same member lengths" (lengths r1)
          (lengths r2);
        ( minimum (List.map (fun ((_, w), _) -> w) samples),
          minimum (List.map (fun (_, (_, w)) -> w) samples) ))
      instances
  in
  let w1 = List.fold_left (fun acc (w, _) -> acc +. w) 0. totals in
  let w2 = List.fold_left (fun acc (_, w) -> acc +. w) 0. totals in
  Printf.printf
    "race jobs=1 %.4f s, jobs=2 %.4f s over %d instances (min of %d pairs \
     each): speedup %.2fx\n"
    w1 w2 (List.length instances) pairs (w1 /. w2);
  if w2 > w1 then
    Alcotest.failf "race at jobs=2 (%.4f s) is slower than at jobs=1 (%.4f s)"
      w2 w1

let () =
  if cores < 4 then
    Printf.printf
      "%d core(s): the jobs=4 speedup gates need >= 4 cores and are \
       skipped%s\n%!"
      cores
      (if cores < 2 then ", the jobs=2 race gate >= 2" else "");
  Alcotest.run "timing-gates"
    [
      ( "overhead",
        [
          Alcotest.test_case "recording within 5% (25 procs, MXR)" `Slow
            test_recording_overhead;
        ] );
      ( "speedup",
        [
          Alcotest.test_case "validate jobs=4 >= 1.5x jobs=1" `Slow
            test_validate_speedup;
          Alcotest.test_case "portfolio race >= 2.0x sequential replay" `Slow
            test_portfolio_speedup;
          Alcotest.test_case "portfolio race at jobs=2 no slower than jobs=1"
            `Slow test_race_jobs2_vs_jobs1;
        ] );
    ];
  Ftes_util.Par.shutdown ()
