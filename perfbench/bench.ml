(* The benchmark program: one workload per process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]

   Set-up (input generation, pool start, one warm-up unit) is repeated
   and its median reported as [setup_s]. The measured loop then runs
   whole rounds over the workload's units, one unit at a time (a closed
   loop with one client), until [seconds] have passed; every execution
   is timed on its own and checked afterwards, outside the clock. Every
   wall time is scaled to a nominal host speed by the reference in
   host.ml.

   [--trace 0] prints the end-to-end metrics. [--trace 1] runs every
   unit both with and without spans, in alternating order, and prints
   the per-layer metrics (with the tracing overhead among them). The
   last line of standard output is the JSON result. *)

module W = Workloads
module Par = Ftes_util.Par

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
}

let parse argv =
  let rec go a = function
    | "--workload" :: v :: r -> go { a with workload = v } r
    | "--seed" :: v :: r -> go { a with seed = int_of_string v } r
    | "--seconds" :: v :: r -> go { a with seconds = float_of_string v } r
    | "--trace" :: v :: r -> go { a with trace = v = "1" } r
    | "--quick" :: r -> go { a with quick = true } r
    | [] -> a
    | _ -> usage ()
  in
  try
    go
      { workload = ""; seed = 1; seconds = 10.; trace = false; quick = false }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

(* One timed execution: a minor collection before and after keeps each
   unit from inheriting the previous check's young garbage and makes the
   runtime's counters of every domain current, so the allocation and
   collection deltas belong to this unit alone. *)
type exec = {
  label : string;
  ms : float;  (** Scaled to the nominal host speed. *)
  raw_ms : float;
  alloc : float;
  minors : int;
  majors : int;
  verdict : W.verdict;
}

let execute ~traced (u : W.unit_of_work) =
  Host.note ();
  let speed = Host.factor () in
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let a0 = Span.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let pending =
    Span.with_ ~layer:"unit" u.W.label (fun () -> u.W.run ~traced)
  in
  let t1 = Unix.gettimeofday () in
  let s1 = Gc.quick_stat () in
  Gc.minor ();
  let a1 = Span.allocated_bytes () in
  let verdict =
    try pending.W.check ()
    with e -> W.fail (u.W.label ^ ": check raised " ^ Printexc.to_string e)
  in
  {
    label = u.W.label;
    ms = (t1 -. t0) *. 1000. *. speed;
    raw_ms = (t1 -. t0) *. 1000.;
    alloc = a1 -. a0;
    minors = s1.Gc.minor_collections - s0.Gc.minor_collections;
    majors = s1.Gc.major_collections - s0.Gc.major_collections;
    verdict;
  }

(* Runs [f] with span recording switched [on], restoring it after. *)
let with_recording on f =
  let saved = !Span.recording in
  Span.recording := on;
  Fun.protect ~finally:(fun () -> Span.recording := saved) f

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> nan
    in
    let v = scan () in
    close_in ic;
    v
  with Sys_error _ -> nan

(* [par.post_fanout_ratio]: a fixed sequential computation (estimator
   calls on one generated design) timed right after a fan-out at the
   workload's [jobs] has started the domain pool, over the same timed
   with no pool. The two alternate, 21 times without a pool and 20 with
   one in between, so the pool's parked domains are the only difference
   and neither side always runs first. Each timing with the pool is
   divided by the mean of the two without it that bracket it; the ratio
   reported is the median of those, of wall times, not scaled. *)
let post_fanout_ratio =
  let p =
    lazy
      (Ftes_workload.Gen.problem ~k:3
         { Ftes_workload.Gen.default with processes = 30; nodes = 3; seed = 7 })
  in
  fun ~jobs ->
    let p = Lazy.force p in
    let time () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to 200 do
        ignore (Sys.opaque_identity (Ftes_sched.Slack.evaluate p))
      done;
      (Unix.gettimeofday () -. t0) *. 1000.
    in
    ignore (time ());
    let pairs = 20 in
    let without = Array.make (pairs + 1) nan and with_pool = Array.make pairs nan in
    for i = 0 to pairs do
      Par.shutdown ();
      without.(i) <- time ();
      if i < pairs then begin
        ignore (Par.map ~jobs Fun.id (List.init 4 Fun.id));
        with_pool.(i) <- time ()
      end
    done;
    Printf.printf
      "sequential probe: median %.3f ms without a pool, %.3f ms after a fan-out at jobs %d\n"
      (Stat.median (Array.to_list without)) (Stat.median (Array.to_list with_pool)) jobs;
    Stat.median
      (List.init pairs (fun i -> with_pool.(i) /. ((without.(i) +. without.(i + 1)) /. 2.)))

(* A metric that came out non-finite is a defect of the run: it is
   printed as 0 and the result is marked incorrect. *)
let print_result ~correct ~attempted ~failed metrics =
  let finite = ref true in
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           if not (Float.is_finite value) then begin
             finite := false;
             Printf.eprintf "check failed: metric %s is not finite\n" name
           end;
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
             (if Float.is_finite value then value else 0.)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && !finite) attempted failed body

(* Self time per layer over the spans under roots named by [in_units]
   ([true]: unit executions; [false]: set-up). *)
let layer_self spans ~in_units =
  let root = Span.root_of spans in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((s : Span.t), self) ->
      let r = root s in
      let under_unit = r.Span.layer = "unit" in
      if under_unit = in_units && s.Span.layer <> "unit" && s.Span.layer <> "setup"
      then begin
        let total, calls, alloc =
          Option.value (Hashtbl.find_opt tbl s.Span.layer) ~default:(0., 0, 0.)
        in
        Hashtbl.replace tbl s.Span.layer (total +. self, calls + 1, alloc +. Span.alloc s)
      end)
    (Span.self_times spans);
  tbl

let () =
  let a = parse Sys.argv in
  let w = match W.find a.workload with Some w -> w | None -> usage () in
  if Ftes_util.Telemetry.enabled () || Ftes_util.Events.enabled () then begin
    prerr_endline "bench: in-program telemetry must stay disabled";
    exit 2
  end;
  (* ---- set-up, repeated; only the last environment is kept ---- *)
  let setup_reps = if a.quick then 1 else 3 in
  let kept = ref None in
  let setup_times =
    List.init setup_reps (fun _ ->
        kept := None;
        Par.shutdown ();
        Gc.full_major ();
        for _ = 1 to Host.window do
          Host.note ()
        done;
        let speed = Host.factor () in
        let t0 = Unix.gettimeofday () in
        let env =
          with_recording a.trace (fun () ->
              Span.with_ ~layer:"setup" "setup" (fun () ->
                  let env = w.W.setup ~seed:a.seed ~quick:a.quick in
                  with_recording false (fun () ->
                      (((env.W.warmup.W.run ~traced:false).W.check ()).W.ok, env))))
        in
        kept := Some env;
        (Unix.gettimeofday () -. t0) *. speed)
  in
  let setup_s = Stat.median setup_times in
  let warm_ok, env = Option.get !kept in
  let fanout_ratio = if a.trace then post_fanout_ratio ~jobs:w.W.jobs else nan in
  Gc.full_major ();
  (* ---- measured loop ---- *)
  let units = env.W.units in
  let execs = ref [] in
  let t_start = Unix.gettimeofday () in
  let round r =
    Array.iter
      (fun u ->
        let run traced = with_recording traced (fun () -> (traced, execute ~traced u)) in
        if a.trace then begin
          (* Alternate which variant goes first so neither always runs
             on a cache or heap the other just warmed. *)
          let first = r mod 2 = 0 in
          let x = run first in
          let y = run (not first) in
          execs := y :: x :: !execs
        end
        else execs := run false :: !execs)
      units
  in
  (* Whole rounds only, and another one only while it is expected to
     end within [seconds]; the first round also pays for the checks'
     one-off cross-validations, so the estimate is the latest round's
     time. Every unit runs at least twice: in two rounds, or traced and
     untraced within one. *)
  let rounds = ref 0 and last = ref 0. in
  let min_rounds = if a.trace then 1 else 2 in
  while
    !rounds < min_rounds || Unix.gettimeofday () -. t_start +. !last <= a.seconds
  do
    let t0 = Unix.gettimeofday () in
    round !rounds;
    incr rounds;
    last := Unix.gettimeofday () -. t0
  done;
  let rounds = !rounds in
  let measured_s = Unix.gettimeofday () -. t_start in
  let execs = List.rev !execs in
  let untraced = List.filter_map (fun (t, e) -> if t then None else Some e) execs in
  let traced = List.filter_map (fun (t, e) -> if t then Some e else None) execs in
  let all = List.map snd execs in
  let failures =
    env.W.setup_failures
    @ (if warm_ok then [] else [ "warm-up unit failed its check" ])
    @ List.filter_map (fun e -> if e.verdict.W.ok then None else Some e.verdict.W.why) all
  in
  List.iter (fun f -> Printf.eprintf "check failed: %s\n" f) (List.sort_uniq compare failures);
  let attempted = List.length all in
  let failed = List.length (List.filter (fun e -> not e.verdict.W.ok) all) in
  let n = float_of_int (List.length untraced) in
  let p50 es = Stat.median (List.map (fun e -> e.ms) es) in
  let tail = Stat.tail (List.map (fun e -> e.ms) untraced) in
  let lengths = List.concat_map (fun e -> e.verdict.W.lengths) all in
  Printf.printf
    "workload %s  seed %d  jobs %d (cores %d)  units %d  rounds %d  executions %d  \
     measured %.1f s\n"
    w.W.name a.seed w.W.jobs W.nproc (Array.length units) rounds attempted measured_s;
  Array.iter
    (fun (u : W.unit_of_work) ->
      let mine = List.filter_map (fun (t, e) -> if (not t) && e.label = u.W.label then Some e.ms else None) execs in
      Printf.printf "  %-40s p50 %10.3f ms over %d\n" u.W.label (Stat.median mine) (List.length mine))
    units;
  Printf.printf "unscaled wall time: p50 %.3f ms, tail %.3f ms; host reference median %.4f ms\n"
    (Stat.median (List.map (fun e -> e.raw_ms) untraced))
    (Stat.tail (List.map (fun e -> e.raw_ms) untraced)).Stat.value
    (Stat.median !Host.all);
  Printf.printf "instance_tail_ms is p%.1f: %d of %d executions lie beyond it\n"
    tail.Stat.percentile tail.Stat.beyond tail.Stat.samples;
  let ok_frac =
    float_of_int (List.length (List.filter (fun e -> e.verdict.W.ok) all)) /. float_of_int attempted
  in
  let correct = failures = [] in
  if not a.trace then
    print_result ~correct ~attempted ~failed
      [
        ("instance_p50_ms", p50 untraced, "ms");
        ("instance_tail_ms", tail.Stat.value, "ms");
        ("mean_length", Stat.mean lengths, "tu");
        ("ok_frac", ok_frac, "fraction");
        ("alloc_mb_per_instance", Stat.sum (List.map (fun e -> e.alloc) untraced) /. n /. 1e6, "MB");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ("setup_s", setup_s, "s");
      ]
  else begin
    let spans = Span.all () in
    let t = float_of_int (List.length traced) in
    let per_unit = layer_self spans ~in_units:true in
    let in_setup = layer_self spans ~in_units:false in
    let get tbl l = Option.value (Hashtbl.find_opt tbl l) ~default:(0., 0, 0.) in
    let per_exec l = let s, _, _ = get per_unit l in s *. 1000. /. t in
    (* Layers that run inside units report per call there; layers that
       only run while setting up (tables on verify-tables) report per
       set-up call. *)
    let per_call l =
      let s, c, al = get per_unit l in
      let s, c, al = if c > 0 then (s, c, al) else get in_setup l in
      if c = 0 then (0., 0.) else (s *. 1000. /. float_of_int c, al /. 1e6 /. float_of_int c)
    in
    let unit_spans =
      List.filter (fun ((s : Span.t), _) -> s.Span.layer = "unit" && s.Span.parent < 0)
        (Span.self_times spans)
    in
    let unit_wall = Stat.sum (List.map (fun ((s : Span.t), _) -> Span.duration s) unit_spans) in
    let residual = Stat.sum (List.map snd unit_spans) in
    let residual_pct = 100. *. residual /. unit_wall in
    let residual_ok = residual_pct <= 5. in
    if not residual_ok then
      Printf.eprintf "check failed: trace residual %.2f%% of unit wall exceeds 5%%\n" residual_pct;
    let mean_or_zero l = match W.samples_of l with [] -> 0. | xs -> Stat.mean xs in
    let median_or_zero l = match W.samples_of l with [] -> 0. | xs -> Stat.median xs in
    let optim_ms = per_exec "optim" in
    let slack_evals = W.counter "slack.evals" /. t in
    let eval_us = median_or_zero "slack.eval_us" in
    let explicit_ms, _ = per_call "sim.explicit" in
    let explicit_calls = let _, c, _ = get per_unit "sim.explicit" in float_of_int c in
    let ftcpg_ms, _ = per_call "ftcpg" in
    let cond_ms, cond_alloc = per_call "conditional" in
    let symbolic_ms, _ = per_call "sim.symbolic" in
    let speedup =
      match env.W.par_probe with
      | Some probe ->
          let one, many = probe () in
          one /. many
      | None -> 0.
    in
    let makespan = W.counter "portfolio.makespan_ms" in
    let member_sum = W.counter "portfolio.member_sum_ms" in
    let tail_label =
      Hashtbl.fold
        (fun k v (bk, bv) ->
          if String.length k > 5 && String.sub k 0 5 = "tail." && v > bv then
            (String.sub k 5 (String.length k - 5), v)
          else (bk, bv))
        W.counters ("-", 0.)
    in
    if makespan > 0. then
      Printf.printf "portfolio tail member: %s (slowest in %.0f of %.0f races)\n"
        (fst tail_label) (snd tail_label) t;
    let p50_traced = p50 traced and p50_untraced = p50 untraced in
    let pool = Par.pool_size () in
    let lookups = W.counter "optim.evals" in
    let spans_path =
      Filename.concat "perfbench"
        (Filename.concat "_out" (Printf.sprintf "spans-%s-seed%d.json" w.W.name a.seed))
    in
    (try
       if not (Sys.file_exists (Filename.dirname spans_path)) then
         Sys.mkdir (Filename.dirname spans_path) 0o755;
       Span.dump spans_path spans;
       Printf.printf "spans: %d written to %s\n" (List.length spans) spans_path
     with Sys_error e -> Printf.eprintf "spans not written: %s\n" e);
    let wins e = W.counter ("portfolio.wins." ^ e) in
    print_result ~correct:(correct && residual_ok) ~attempted ~failed
      [
        ("optim.self_ms", optim_ms, "ms");
        ("optim.evals", lookups /. t, "count");
        ("optim.alloc_mb", (let _, _, al = get per_unit "optim" in al /. 1e6 /. t), "MB");
        ("slack.evals", slack_evals, "count");
        ("slack.eval_us", eval_us, "us");
        ("slack.share", (if optim_ms > 0. then slack_evals *. eval_us /. 1000. /. optim_ms else 0.), "ratio");
        ("evalcache.hit_rate", (if lookups > 0. then W.counter "evalcache.hits" /. lookups else 0.), "ratio");
        ("evalcache.signature_us", median_or_zero "evalcache.signature_us", "us");
        ("ftcpg.self_ms", ftcpg_ms, "ms");
        ("ftcpg.vertices", mean_or_zero "ftcpg.vertices", "count");
        ("ftcpg.scenarios", mean_or_zero "ftcpg.scenarios", "count");
        ("conditional.self_ms", cond_ms, "ms");
        ("conditional.entries", mean_or_zero "conditional.entries", "count");
        ("conditional.alloc_mb", cond_alloc, "MB");
        ("sim.explicit_ms", explicit_ms, "ms");
        ("sim.scenarios_per_ms",
          (if explicit_ms > 0. then W.counter "sim.explicit_scenarios" /. (explicit_ms *. explicit_calls) else 0.),
          "1/ms");
        ("sim.symbolic_ms", symbolic_ms, "ms");
        ("symbolic.cubes", mean_or_zero "symbolic.cubes", "count");
        ("symbolic.sat_queries", mean_or_zero "symbolic.sat_queries", "count");
        ("symbolic.antichain", mean_or_zero "symbolic.antichain", "count");
        ("par.cores", float_of_int W.nproc, "count");
        ("par.jobs_requested", float_of_int w.W.jobs, "count");
        ("par.jobs_effective", float_of_int (min w.W.jobs (1 + pool)), "count");
        ("par.speedup", speedup, "ratio");
        ("par.post_fanout_ratio", fanout_ratio, "ratio");
        ("portfolio.makespan_ms", makespan /. t, "ms");
        ("portfolio.member_sum_ms", member_sum /. t, "ms");
        ("portfolio.efficiency",
          (if makespan > 0. then member_sum /. (float_of_int w.W.jobs *. makespan) else 0.), "ratio");
        ("portfolio.tail_member_ms", W.counter "portfolio.tail_member_ms" /. t, "ms");
        ("portfolio.wins.MXR", wins "MXR", "count");
        ("portfolio.wins.MX", wins "MX", "count");
        ("portfolio.wins.SFX", wins "SFX", "count");
        ("portfolio.wins.MR", wins "MR", "count");
        ("portfolio.wins.LNS", wins "LNS", "count");
        ("incumbent.improvements", W.counter "incumbent.improvements" /. t, "count");
        ("gc.minor_per_instance",
          Stat.mean (List.map (fun e -> float_of_int e.minors) traced), "count");
        ("gc.major_per_instance",
          Stat.mean (List.map (fun e -> float_of_int e.majors) traced), "count");
        ("synthesis.residual_ms", residual *. 1000. /. t, "ms");
        ("trace.residual_pct", residual_pct, "%");
        ("trace.overhead_pct", 100. *. ((p50_traced /. p50_untraced) -. 1.), "%");
        ("instance.samples", float_of_int (List.length untraced), "count");
        ("instance.tail_pct", tail.Stat.percentile, "%");
        ("host.reference_ms", Stat.median !Host.all, "ms");
        ("host.unscaled_p50_ms", Stat.median (List.map (fun e -> e.raw_ms) untraced), "ms");
      ]
  end;
  Par.shutdown ()
