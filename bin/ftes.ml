(* ftes — command-line front end for the fault-tolerant synthesis flow:
   generate workloads, synthesize configurations, print schedule tables,
   run fault-injection validation, reproduce the paper's experiments. *)

open Cmdliner

(* Exit status of a run whose input file cannot be read or parsed, or
   whose output file cannot be opened for writing. *)
let exit_bad_file = 2

let read_doc path =
  match Ftes_dsl.Dsl.load path with
  | Ok doc -> doc
  | Error (Ftes_dsl.Dsl.Syntax { line; message }) ->
      Format.eprintf "ftes: %s:%d: %s@." path line message;
      exit exit_bad_file
  | Error (Ftes_dsl.Dsl.Unreadable msg) ->
      let prefix = path ^ ": " in
      Format.eprintf "ftes: %s@."
        (if String.starts_with ~prefix msg then msg else prefix ^ msg);
      exit exit_bad_file

let exit_bad_input =
  Cmd.Exit.info exit_bad_file ~doc:"when FILE cannot be read or parsed."

(* Exit status of a run whose instance exceeds one of the limits that
   bound the table synthesis. *)
let exit_limit = 3

(* A converter for the values [parse] reads and [valid] accepts; any
   other value is a usage error (exit 124) naming [expected], before
   any work starts. *)
let checked parse print ~expected valid =
  let parse str =
    match parse str with
    | Some v when valid v -> Ok v
    | _ ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" str expected))
  in
  Arg.conv (parse, print)

let int_from lo =
  checked int_of_string_opt Format.pp_print_int
    ~expected:(Printf.sprintf "an integer >= %d" lo) (fun n -> n >= lo)

let float_in ~expected valid =
  checked float_of_string_opt Format.pp_print_float ~expected (fun x ->
      Float.is_finite x && valid x)

let probability =
  float_in ~expected:"a probability in [0,1]" (fun p -> p >= 0. && p <= 1.)

let non_negative = float_in ~expected:"a number >= 0" (fun x -> x >= 0.)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate processes nodes seed frozen_procs frozen_msgs k output =
  let spec =
    {
      Ftes_workload.Gen.default with
      processes;
      nodes;
      seed;
      frozen_proc_prob = frozen_procs;
      frozen_msg_prob = frozen_msgs;
    }
  in
  let app, arch, wcet = Ftes_workload.Gen.instance spec in
  let doc = { Ftes_dsl.Dsl.app; arch; wcet; k } in
  let text = Ftes_dsl.Dsl.to_string doc in
  match output with
  | None -> print_string text
  | Some path ->
      Ftes_dsl.Dsl.save path doc;
      Format.printf "wrote %s@." path

let generate_cmd =
  let processes =
    Arg.(value & opt (int_from 1) 10
         & info [ "p"; "processes" ] ~doc:"Process count.")
  in
  let nodes =
    Arg.(value & opt (int_from 1) 3 & info [ "n"; "nodes" ] ~doc:"Node count.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let fp =
    Arg.(value & opt probability 0. & info [ "frozen-procs" ]
           ~doc:"Probability a process is frozen.")
  in
  let fm =
    Arg.(value & opt probability 0. & info [ "frozen-msgs" ]
           ~doc:"Probability a message is frozen.")
  in
  let k =
    Arg.(value & opt (int_from 0) 2
         & info [ "k" ] ~doc:"Tolerated transient faults.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ]
           ~doc:"Output file (stdout when absent).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random synthesis instance.")
    Term.(const generate $ processes $ nodes $ seed $ fp $ fm $ k $ output)

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let run path =
    let doc = read_doc path in
    Format.printf "%a@.%a@.k = %d@." Ftes_app.App.pp doc.Ftes_dsl.Dsl.app
      Ftes_arch.Arch.pp doc.Ftes_dsl.Dsl.arch doc.Ftes_dsl.Dsl.k;
    Format.printf "%a@." Ftes_arch.Wcet.pp doc.Ftes_dsl.Dsl.wcet
  in
  Cmd.v
    (Cmd.info "info" ~exits:(exit_bad_input :: Cmd.Exit.defaults)
       ~doc:"Print a parsed synthesis instance.")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* synthesize                                                          *)
(* ------------------------------------------------------------------ *)

let strategy_conv =
  let parse = function
    | "mxr" -> Ok Ftes_optim.Strategy.MXR
    | "mx" -> Ok Ftes_optim.Strategy.MX
    | "mr" -> Ok Ftes_optim.Strategy.MR
    | "sfx" -> Ok Ftes_optim.Strategy.SFX
    | "mc-local" -> Ok Ftes_optim.Strategy.MC_local
    | "mc-global" -> Ok Ftes_optim.Strategy.MC_global
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (String.lowercase_ascii (Ftes_optim.Strategy.name_to_string s))
  in
  Arg.conv (parse, print)

(* [-j/--jobs], shared by every command that fans work out. *)
let jobs =
  Arg.(value
       & opt (some (int_from 1)) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domains for the parallel work: candidate evaluation, \
                 scenario replay, corpus instances and the portfolio \
                 race (default: all cores), and the slot collapse of \
                 schedule-table assembly (default: sequential). 1 runs \
                 fully sequentially. Capped at the core count.")

(* Open every output file before the run starts, truncating none until
   all have opened: an unwritable path costs one line, no synthesis and
   no other file's contents, and the files this run created are
   removed again. *)
let open_outputs files =
  let opened = ref [] in
  let open_one file =
    let existed = Sys.file_exists file in
    match open_out_gen [ Open_wronly; Open_creat; Open_text ] 0o666 file with
    | oc ->
        opened := (file, oc, existed) :: !opened;
        (file, oc)
    | exception Sys_error msg ->
        List.iter
          (fun (f, oc, existed) ->
            close_out_noerr oc;
            if not existed then try Sys.remove f with Sys_error _ -> ())
          !opened;
        let prefix = file ^ ": " in
        let reason =
          if String.starts_with ~prefix msg then
            String.sub msg (String.length prefix)
              (String.length msg - String.length prefix)
          else msg
        in
        Format.eprintf "ftes: cannot write %s: %s@." file reason;
        exit exit_bad_file
  in
  let outs = List.map (Option.map open_one) files in
  List.iter
    (fun (_, oc, _) -> Unix.ftruncate (Unix.descr_of_out_channel oc) 0)
    !opened;
  outs

let synthesize path strategy portfolio deadline fto checkpointing no_tables
    matrix validate explain json symbolic jobs no_cache stats trace metrics
    progress events metrics_json =
  let module Events = Ftes_util.Events in
  let module Telemetry = Ftes_util.Telemetry in
  let doc = read_doc path in
  let events_out, trace_out, metrics_json_out =
    match open_outputs [ events; trace; metrics_json ] with
    | [ e; t; m ] -> (e, t, m)
    | _ -> assert false
  in
  let recording =
    progress || metrics
    || List.exists Option.is_some [ events; trace; metrics_json ]
  in
  if recording then Events.enable ();
  let sinks =
    List.map Events.add_sink
      (Option.to_list
         (Option.map (fun (_, oc) -> Events.ndjson_sink oc) events_out)
      @ (if progress then [ Events.progress_sink stderr ] else [])
      @ if trace <> None || metrics then [ Telemetry.span_sink ] else [])
  in
  (* Emitted on every exit path, including validation failure. *)
  let finish_telemetry () =
    if recording then begin
      Events.drain ();
      let dropped = Events.dropped () in
      if dropped > 0 then
        Format.eprintf "ftes: %d record(s) dropped (ring buffer full)@."
          dropped;
      Events.disable ()
    end;
    List.iter Events.remove_sink sinks;
    let write out render =
      Option.iter
        (fun (file, oc) ->
          render oc;
          close_out oc;
          Format.printf "wrote %s@." file)
        out
    in
    write events_out ignore;
    write trace_out (fun oc ->
        output_string oc (Telemetry.to_chrome_json ()));
    if metrics then
      Format.printf "@.-- telemetry --@.%a@." Telemetry.pp_summary ();
    write metrics_json_out (fun oc ->
        output_string oc (Telemetry.to_metrics_json ());
        output_char oc '\n')
  in
  let cache =
    if no_cache then None else Some (Ftes_optim.Evalcache.create ())
  in
  let tabu =
    let base =
      Ftes_core.Synthesis.default_options.Ftes_core.Synthesis.tabu
    in
    let base = { base with Ftes_optim.Tabu.cache } in
    match jobs with
    | None -> base
    | Some j -> { base with Ftes_optim.Tabu.jobs = j }
  in
  let options =
    {
      Ftes_core.Synthesis.strategy;
      tabu;
      compute_fto = fto;
      checkpointing;
      conditional = not no_tables;
      sched_jobs = Option.value jobs ~default:1;
      portfolio =
        (* --deadline only makes sense for the anytime portfolio, so it
           implies --portfolio. *)
        (if portfolio || deadline <> None then
           Some
             {
               Ftes_optim.Portfolio.default_options with
               Ftes_optim.Portfolio.jobs =
                 Option.value jobs
                   ~default:(Ftes_util.Par.default_jobs ());
               deadline_s = deadline;
               (* Share the CLI's cache so --stats reports the race's
                  traffic (and --no-cache still means a fresh internal
                  one, portfolio members always share a cache). *)
               cache;
             }
         else None);
    }
  in
  let result =
    Ftes_core.Synthesis.synthesize ~options ~app:doc.Ftes_dsl.Dsl.app
      ~arch:doc.Ftes_dsl.Dsl.arch ~wcet:doc.Ftes_dsl.Dsl.wcet
      ~k:doc.Ftes_dsl.Dsl.k ()
  in
  Format.printf "%a@." Ftes_core.Synthesis.pp result;
  Format.printf "@.-- policy assignment & mapping --@.";
  let problem = result.Ftes_core.Synthesis.problem in
  let g = Ftes_ftcpg.Problem.graph problem in
  Array.iteri
    (fun pid policy ->
      Format.printf "  %-8s %-40s on %s@."
        (Ftes_app.Graph.process g pid).Ftes_app.Graph.pname
        (Format.asprintf "%a" Ftes_app.Policy.pp policy)
        (String.concat ","
           (List.map
              (fun nid -> Printf.sprintf "N%d" (nid + 1))
              (Ftes_ftcpg.Mapping.copies problem.Ftes_ftcpg.Problem.mapping
                 ~pid))))
    problem.Ftes_ftcpg.Problem.policies;
  (match result.Ftes_core.Synthesis.tables with
  | Ok table ->
      Format.printf "@.-- schedule tables --@.%a@." Ftes_sched.Table.pp table;
      if matrix then
        Format.printf "@.%a@."
          (Ftes_sched.Table.pp_matrix ~max_columns:24)
          table
  | Error _ -> ());
  (match (stats, cache) with
  | true, Some c ->
      Format.printf "@.-- evaluation cache --@.  %a@."
        Ftes_optim.Evalcache.pp_stats
        (Ftes_optim.Evalcache.stats c)
  | true, None ->
      Format.printf "@.-- evaluation cache --@.  disabled (--no-cache)@."
  | false, _ -> ());
  if validate || explain || json || symbolic then begin
    let mode = if symbolic then `Symbolic else `Explicit in
    match Ftes_core.Synthesis.validate ?jobs ~mode result with
    | Error why ->
        Format.printf "@.fault-injection validation: not run (%s)@."
          (match why with
          | Ftes_core.Synthesis.Not_requested ->
              "tables not requested: --no-tables"
          | Limit l -> Ftes_core.Synthesis.limit_to_string l);
        finish_telemetry ();
        exit exit_limit
    | Ok violations ->
        if json then
          Format.printf "@.%s@." (Ftes_sim.Violation.list_to_json violations);
        if violations = [] then
          Format.printf "@.fault-injection validation: OK@."
        else begin
          Format.printf "@.fault-injection validation FAILED:@.";
          List.iter
            (fun v ->
              Format.printf "  ! %s@." (Ftes_sim.Violation.to_string v))
            violations;
          if explain then
            Result.iter
              (Format.printf "@.-- counterexample report --@.%a@."
                 Ftes_sim.Diagnose.pp_report)
              (Ftes_core.Synthesis.diagnose ?jobs result);
          finish_telemetry ();
          exit 1
        end
  end;
  finish_telemetry ()

let synthesize_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let strategy =
    Arg.(value & opt strategy_conv Ftes_optim.Strategy.MXR
           & info [ "strategy" ] ~doc:"mxr | mx | mr | sfx | mc-local | mc-global.")
  in
  let portfolio =
    Arg.(value & flag & info [ "portfolio" ]
           ~doc:"Race the whole strategy portfolio (MXR, MX, SFX, MR and \
                 the large-neighborhood restart engine LNS, diversified over \
                 seeds/tenures/neighborhoods) concurrently on the domain \
                 pool with a shared evaluation cache, and keep the best \
                 design. Overrides --strategy; combine with --progress \
                 to watch the race live.")
  in
  let deadline =
    Arg.(value & opt (some non_negative) None & info [ "deadline" ] ~docv:"SECS"
           ~doc:"Wall-clock budget for the portfolio race: every member \
                 stops at the deadline and the best incumbent found so \
                 far wins (anytime mode). Implies --portfolio.")
  in
  let fto =
    Arg.(value & flag & info [ "fto" ]
           ~doc:"Also compute the fault-tolerance overhead.")
  in
  let checkpointing =
    Arg.(value & flag & info [ "checkpointing" ]
           ~doc:"Optimize checkpoint counts globally.")
  in
  let no_tables =
    Arg.(value & flag & info [ "no-tables" ]
           ~doc:"Skip FT-CPG expansion and conditional scheduling.")
  in
  let matrix =
    Arg.(value & flag & info [ "matrix" ]
           ~doc:"Also print the Fig. 6-style matrix layout.")
  in
  let validate =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Run exhaustive fault-injection validation of the tables.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"On validation failure, print a counterexample report: \
                 violations grouped by invariant and vertex, each with a \
                 shrunk minimal failing scenario. Implies --validate.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Dump the validation violations as a JSON array of \
                 structured records. Implies --validate.")
  in
  let symbolic =
    Arg.(value & flag & info [ "symbolic" ]
           ~doc:"Validate with the symbolic scenario-family backend: \
                 cubes of scenarios are replayed through the compiled \
                 tables instead of the exhaustive enumeration, with one \
                 explicitly confirmed witness per failing cube. Same \
                 clean/not-clean verdict as --validate, but scales with \
                 the tables' guard structure rather than with the \
                 scenario count — use it for large k. Implies \
                 --validate.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ]
           ~doc:"Disable the memoized design-evaluation cache (the \
                 result is identical; only the running time changes).")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print evaluation-cache statistics (lookups, hit rate, \
                 inserts, entries) after synthesis.")
  in
  let recorder = "Turns on the run's one instrumentation recorder, as do \
                  --events, --progress, --trace, --metrics and \
                  --metrics-json."
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:("Write the recorded spans to FILE as a Chrome \
                  trace-event JSON file, loadable in chrome://tracing or \
                  Perfetto. " ^ recorder))
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:("Print a per-phase summary (span tree with totals and \
                  self-time, counters, histograms) after synthesis. "
                 ^ recorder))
  in
  let progress =
    Arg.(value & flag & info [ "progress" ]
           ~doc:("Stream live progress to stderr while synthesis runs: \
                  phase boundaries, optimizer incumbent improvements \
                  (cost, evaluations, wall time), validation progress \
                  and GC samples. " ^ recorder))
  in
  let events =
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE"
           ~doc:("Stream typed progress events to FILE as NDJSON (one \
                  JSON object per line) while synthesis runs. Recording \
                  never blocks the search: a full buffer drops records \
                  and reports the count instead. " ^ recorder))
  in
  let metrics_json =
    Arg.(value & opt (some string) None
           & info [ "metrics-json" ] ~docv:"FILE"
               ~doc:("Write the final counters/gauges/histograms \
                      snapshot to FILE as JSON. " ^ recorder))
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"on fault-injection validation failure."
    :: Cmd.Exit.info exit_limit
         ~doc:"when validation (--validate, --symbolic, --json or \
               --explain) was asked for but there are no tables to \
               validate: the instance exceeds a limit of the table \
               synthesis, or --no-tables was given. Validation prints \
               'not run' with the reason."
    :: Cmd.Exit.info exit_bad_file
         ~doc:"when FILE cannot be read or parsed, or an output file \
               (--events, --trace, --metrics-json) cannot be opened for \
               writing; nothing is synthesized."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "synthesize" ~exits
       ~doc:"Synthesize a fault-tolerant configuration and its tables.")
    Term.(const synthesize $ file $ strategy $ portfolio $ deadline $ fto
          $ checkpointing $ no_tables $ matrix $ validate $ explain $ json
          $ symbolic $ jobs $ no_cache $ stats $ trace $ metrics $ progress
          $ events $ metrics_json)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate path faults trace jobs =
  let doc = read_doc path in
  let problem = Ftes_dsl.Dsl.to_problem doc in
  let table =
    match Ftes_core.Synthesis.tables ?jobs problem with
    | Ok table -> table
    | Error l ->
        Format.eprintf "ftes: %s: %s@." path
          (Ftes_core.Synthesis.limit_to_string l);
        exit exit_limit
  in
  let ftcpg = table.Ftes_sched.Table.ftcpg in
  (* Select rows of the packed scenario arena by fault count and replay
     them against one compiled table; only failing rows and the one
     whose trace is printed are unpacked to guards. *)
  let space = Ftes_ftcpg.Ftcpg.scenario_space ftcpg in
  let total = Ftes_ftcpg.Condvec.count space in
  let selected = ref [] in
  for i = total - 1 downto 0 do
    if Ftes_ftcpg.Condvec.fault_count space i = faults then
      selected := i :: !selected
  done;
  let selected = Array.of_list !selected in
  Format.printf "%d scenarios total, %d with exactly %d fault(s)@."
    total (Array.length selected) faults;
  let c = Ftes_sim.Compiled.compile table space.Ftes_ftcpg.Condvec.u in
  (* Replay ranges on the domain pool; the ordered merge keeps the
     report order identical to the sequential run. *)
  let replayed =
    Ftes_util.Par.map_ranges ?jobs (Array.length selected) (fun lo hi ->
        let scr = Ftes_sim.Compiled.make_scratch c in
        List.init (hi - lo) (fun off ->
            let i = selected.(lo + off) in
            let vs = Ftes_sim.Compiled.replay_one c space i scr in
            (i, vs, Ftes_sim.Compiled.makespan scr)))
    |> List.concat
  in
  let worst = ref None in
  List.iter
    (fun (i, vs, makespan) ->
      if vs <> [] then begin
        Format.printf "VIOLATIONS in %s:@."
          (Ftes_ftcpg.Cond.to_string
             ~name:(Ftes_ftcpg.Ftcpg.cond_name ftcpg)
             (Ftes_ftcpg.Condvec.guard_at space i));
        List.iter
          (fun v -> Format.printf "  ! %s@." (Ftes_sim.Violation.to_string v))
          vs
      end;
      match !worst with
      | Some (_, w) when w >= makespan -> ()
      | _ -> worst := Some (i, makespan))
    replayed;
  match !worst with
  | None -> Format.printf "no scenario with %d fault(s)@." faults
  | Some (i, makespan) ->
      Format.printf "worst makespan with %d fault(s): %g@." faults makespan;
      if trace then
        Format.printf "%a@." Ftes_sim.Sim.pp_outcome
          (Ftes_sim.Sim.replay c space i)

let simulate_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let faults =
    Arg.(value & opt int 1 & info [ "faults" ]
           ~doc:"Simulate all scenarios with exactly this many faults.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print the event trace of the worst scenario.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~exits:
         (exit_bad_input
         :: Cmd.Exit.info exit_limit
              ~doc:
                "when the instance exceeds a limit of the table synthesis: \
                 the FT-CPG's vertex cap, the scenario tree's track cap or \
                 the iteration cap of the frozen start times; one line \
                 names the limit and nothing is simulated."
         :: Cmd.Exit.defaults)
       ~doc:"Execute the synthesized tables under injected faults.")
    Term.(const simulate $ file $ faults $ trace $ jobs)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment which quick =
  let module E = Ftes_core.Experiments in
  let timings rows =
    List.iter (fun (l, v) -> Format.printf "  %-50s %8.1f ms@." l v) rows
  in
  (* A sweep as its table followed by an ASCII chart of the curves. *)
  let series ~y_label (s : E.series) =
    Format.printf "%a@." E.pp_series s;
    print_string
      (Ftes_util.Chart.render_chart ~y_label ~x_label:s.E.x_label ~xs:s.E.xs
         ~series:s.E.curves ())
  in
  (* Full mode runs 3 seeds per point, the count EXPERIMENTS.md
     reports. *)
  let sweep_seeds = if quick then 2 else 3 in
  match which with
  | "fig1" -> timings (E.fig1 ())
  | "fig2" -> timings (E.fig2 ())
  | "fig4" -> timings (E.fig4 ())
  | "fig5" ->
      let f = E.fig5 () in
      Format.printf "%a@." Ftes_ftcpg.Ftcpg.pp f;
      let g = Ftes_ftcpg.Problem.graph (Ftes_ftcpg.Ftcpg.problem f) in
      for pid = 0 to Ftes_app.Graph.process_count g - 1 do
        Format.printf "  %s: %d copies@."
          (Ftes_app.Graph.process g pid).Ftes_app.Graph.pname
          (List.length (Ftes_ftcpg.Ftcpg.proc_copies f ~pid))
      done;
      Format.printf "  paper Fig. 5b: P1 3 copies, P2 6, P3 3 (+P3^S), P4 6@."
  | "fig6" ->
      let t = E.fig6 () in
      Format.printf "%a@.@.%a@." Ftes_sched.Table.pp t
        (Ftes_sched.Table.pp_matrix ~max_columns:24)
        t;
      Format.printf "fault-injection validation: %s@."
        (match Ftes_sim.Sim.validate t with
        | [] ->
            Printf.sprintf "OK (all %d scenarios)"
              (Ftes_ftcpg.Ftcpg.scenario_count t.Ftes_sched.Table.ftcpg)
        | violations ->
            String.concat "; "
              (List.map Ftes_sim.Violation.to_string violations))
  | "fig7" ->
      let sizes = if quick then [ 20; 40 ] else [ 20; 40; 60; 80; 100 ] in
      series ~y_label:"avg % deviation"
        (E.fig7 ~seeds_per_point:sweep_seeds ~sizes ())
  | "fig8" ->
      let sizes = if quick then [ 40; 60 ] else [ 40; 60; 80; 100 ] in
      series ~y_label:"avg % deviation"
        (E.fig8 ~seeds_per_point:sweep_seeds ~sizes ())
  | "ablation" ->
      series ~y_label:"% of non-transparent"
        (E.transparency_tradeoff ~seeds:(if quick then 2 else 5) ())
  | "soft" ->
      series ~y_label:"% of utility bound"
        (E.soft_utility_vs_k ~seeds:(if quick then 2 else 5) ())
  | "diagnose" ->
      let table, report = E.diagnostics_demo () in
      Format.printf
        "corrupted Fig. 6 tables (%d entries); validator report:@.@.%a@."
        (Ftes_sched.Table.entry_count table)
        Ftes_sim.Diagnose.pp_report report
  | "race" | "race8" ->
      let seeds = if quick then 1 else 2 in
      let sizes = if quick then [ 20 ] else [ 20; 40 ] in
      let races =
        (if which = "race8" then E.fig8_portfolio else E.fig7_portfolio)
          ~seeds_per_point:seeds ~sizes ()
      in
      List.iter
        (fun r ->
          Format.printf "%a@." E.pp_race r;
          List.iter
            (fun (label, len, wall) ->
              Format.printf "    %-12s length %8.1f  (%.2f s)@." label len
                wall)
            r.E.members;
          Format.printf "    curve:";
          List.iter
            (fun (e : Ftes_optim.Incumbent.entry) ->
              Format.printf " %.1f@%.2fs" e.Ftes_optim.Incumbent.cost
                e.Ftes_optim.Incumbent.wall_s)
            r.E.curve;
          Format.printf "@.")
        races
  | other ->
      Format.eprintf
        "unknown experiment %S \
         (fig1|fig2|fig4|fig5|fig6|fig7|fig8|ablation|soft|diagnose|race|\
         race8)@."
        other;
      exit 2

let experiment_cmd =
  let which =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweep for a fast run.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's figures.")
    Term.(const experiment $ which $ quick)

(* ------------------------------------------------------------------ *)
(* corpus                                                              *)
(* ------------------------------------------------------------------ *)

module Corpus_instance = Ftes_corpus.Instance
module Corpus_registry = Ftes_corpus.Registry
module Corpus_manifest = Ftes_corpus.Manifest
module Corpus_runner = Ftes_corpus.Runner

let tier_conv =
  let parse s =
    match Corpus_instance.tier_of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown tier %S" s))
  in
  let print ppf t =
    Format.pp_print_string ppf (Corpus_instance.tier_to_string t)
  in
  Arg.conv (parse, print)

let corpus_select tiers filter =
  let tiers = if tiers = [] then None else Some tiers in
  Corpus_registry.select ?tiers ?filter ()

let print_outcome ~done_count ~total (o : Corpus_runner.outcome) =
  Format.printf "[%3d/%3d] %-34s %-8s %-16s %8.1f ms  %-16s len %.1f@."
    done_count total o.Corpus_runner.instance.Corpus_instance.id
    (Corpus_instance.tier_to_string
       o.Corpus_runner.instance.Corpus_instance.tier)
    (Corpus_instance.check_kind
       o.Corpus_runner.instance.Corpus_instance.check)
    o.Corpus_runner.wall_ms
    (if o.Corpus_runner.ok then o.Corpus_runner.verdict
     else "FAILED: " ^ o.Corpus_runner.detail)
    o.Corpus_runner.length

let corpus_list tiers filter =
  let instances = corpus_select tiers filter in
  List.iter
    (fun (i : Corpus_instance.t) ->
      Format.printf "%-34s %-8s %-16s k=%d  %s@." i.Corpus_instance.id
        (Corpus_instance.tier_to_string i.Corpus_instance.tier)
        (Corpus_instance.check_kind i.Corpus_instance.check)
        i.Corpus_instance.k
        (String.concat " "
           (List.filter_map
              (fun key ->
                Option.map
                  (fun v -> key ^ "=" ^ v)
                  (Corpus_instance.axis i key))
              [ "shape"; "bus"; "transparency"; "wcet"; "class" ])))
    instances;
  Format.printf "%d instance(s)@." (List.length instances)

let corpus_run tiers filter jobs =
  let instances = corpus_select tiers filter in
  let outcomes =
    Corpus_runner.run ?jobs ~on_outcome:print_outcome instances
  in
  let failed = List.filter (fun o -> not o.Corpus_runner.ok) outcomes in
  let wall =
    List.fold_left (fun acc o -> acc +. o.Corpus_runner.wall_ms) 0. outcomes
  in
  Format.printf "@.%d instance(s), %.1f s total instance time, %d failure(s)@."
    (List.length outcomes) (wall /. 1000.) (List.length failed);
  if failed <> [] then begin
    List.iter
      (fun o ->
        Format.printf "  ! %s: %s@."
          o.Corpus_runner.instance.Corpus_instance.id o.Corpus_runner.detail)
      failed;
    exit 1
  end

let corpus_verify tiers filter jobs manifest_path budget_factor =
  match Corpus_manifest.load manifest_path with
  | Error msg ->
      Format.eprintf "cannot load manifest %s: %s@." manifest_path msg;
      exit 2
  | Ok manifest ->
      let instances = corpus_select tiers filter in
      let complete = tiers = [] && filter = None in
      let outcomes =
        Corpus_runner.run ?jobs ~on_outcome:print_outcome instances
      in
      let failures =
        Corpus_runner.verify ~budget_factor ~complete ~manifest outcomes
      in
      if failures = [] then
        Format.printf "@.corpus verify: OK (%d instance(s) match %s)@."
          (List.length outcomes) manifest_path
      else begin
        Format.printf "@.corpus verify FAILED (%d regression(s)):@."
          (List.length failures);
        List.iter
          (fun (f : Corpus_runner.failure) ->
            Format.printf "  ! %s: %s@." f.Corpus_runner.id
              f.Corpus_runner.reason)
          failures;
        exit 1
      end

let corpus_pin jobs manifest_path =
  let instances = Corpus_registry.all () in
  let outcomes =
    Corpus_runner.run ?jobs ~on_outcome:print_outcome instances
  in
  (match List.find_opt (fun o -> not o.Corpus_runner.ok) outcomes with
  | Some o ->
      Format.eprintf
        "corpus pin: refusing to pin a failing instance (%s: %s)@."
        o.Corpus_runner.instance.Corpus_instance.id o.Corpus_runner.detail;
      exit 1
  | None -> ());
  Corpus_manifest.save manifest_path (Corpus_runner.pin outcomes);
  Format.printf "@.pinned %d instance(s) into %s@." (List.length outcomes)
    manifest_path

let corpus_cmd =
  let tiers =
    Arg.(value & opt_all tier_conv []
           & info [ "tier" ] ~doc:"Only this budget tier (repeatable): \
                                   smoke | standard | heavy.")
  in
  let filter =
    Arg.(value & opt (some string) None
           & info [ "filter" ]
               ~doc:"Only instances whose id or axis values contain this \
                     substring (e.g. 'bursty', 'single', 'soft').")
  in
  let manifest_path =
    Arg.(value & opt string "corpus/manifest.json"
           & info [ "manifest" ] ~docv:"FILE" ~doc:"Manifest path.")
  in
  let budget_factor =
    Arg.(value & opt float 1.0
           & info [ "budget-factor" ]
               ~doc:"Multiplier on the per-tier runtime ceilings before a \
                     budget regression is reported.")
  in
  let list_cmd =
    Cmd.v
      (Cmd.info "list" ~doc:"List corpus instances and their axes.")
      Term.(const corpus_list $ tiers $ filter)
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:"Execute corpus instances (no manifest comparison).")
      Term.(const corpus_run $ tiers $ filter $ jobs)
  in
  let verify_cmd =
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Execute corpus instances and fail on any digest, length, \
               verdict or budget regression against the manifest.")
      Term.(const corpus_verify $ tiers $ filter $ jobs $ manifest_path
            $ budget_factor)
  in
  let pin_cmd =
    Cmd.v
      (Cmd.info "pin"
         ~doc:"Execute the full corpus and (re)write the manifest oracle.")
      Term.(const corpus_pin $ jobs $ manifest_path)
  in
  Cmd.group
    (Cmd.info "corpus"
       ~doc:"The regression-gated benchmark corpus: 160+ pinned instances \
             spanning DAG shapes, fault hypotheses up to k=7, both bus \
             models, transparency densities, WCET heterogeneity and \
             soft-goal variants.")
    [ list_cmd; run_cmd; verify_cmd; pin_cmd ]

(* ------------------------------------------------------------------ *)
(* reliability                                                         *)
(* ------------------------------------------------------------------ *)

let reliability rate period target hours =
  let module R = Ftes_core.Reliability in
  let k =
    match R.min_k ~rate ~period ~target () with
    | k -> k
    | exception Invalid_argument msg ->
        Format.eprintf "ftes: %s@." msg;
        exit exit_limit
  in
  Format.printf
    "fault rate %g/ms, cycle %g ms: expected faults per cycle %g@." rate
    period (rate *. period);
  Format.printf "minimal k for per-cycle reliability >= %g: k = %d@." target k;
  Format.printf "P(more than %d faults in a cycle) = %.3e@." k
    (R.prob_more_than_k ~rate ~period ~k);
  match hours with
  | None -> ()
  | Some h ->
      let cycles = R.cycles_in ~period ~hours:h in
      Format.printf
        "mission of %g h = %.3e cycles: P(hypothesis holds throughout) = %.6f@."
        h cycles
        (R.mission_reliability ~rate ~period ~k ~cycles)

let reliability_cmd =
  let rate =
    Arg.(required & opt (some non_negative) None
           & info [ "rate" ] ~doc:"Transient fault rate (faults per ms).")
  in
  let period =
    Arg.(required
         & opt (some (float_in ~expected:"a number > 0" (fun x -> x > 0.))) None
         & info [ "period" ] ~doc:"Cycle length (ms).")
  in
  let target =
    Arg.(value
         & opt (float_in ~expected:"a number in (0,1)" (fun t -> t > 0. && t < 1.))
             0.999999
         & info [ "target" ] ~doc:"Per-cycle reliability goal in (0,1).")
  in
  let hours =
    Arg.(value & opt (some non_negative) None
           & info [ "mission-hours" ] ~doc:"Also report mission reliability.")
  in
  Cmd.v
    (Cmd.info "reliability"
       ~exits:
         (Cmd.Exit.info exit_limit
            ~doc:"when even k = 64 faults per cycle do not reach the target."
         :: Cmd.Exit.defaults)
       ~doc:"Derive the fault hypothesis k from a fault rate and goal.")
    Term.(const reliability $ rate $ period $ target $ hours)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "synthesis of fault-tolerant embedded systems (DATE 2008)" in
  Cmd.group
    (Cmd.info "ftes" ~version:"1.0.0" ~doc)
    [ generate_cmd; info_cmd; synthesize_cmd; simulate_cmd; experiment_cmd;
      corpus_cmd; reliability_cmd ]

let () = exit (Cmd.eval main_cmd)
