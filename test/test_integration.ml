(* End-to-end integration tests: full synthesis runs, cross-validation
   of the schedulers by fault injection, the paper's worked examples and
   miniature versions of the evaluation experiments. *)

module Synthesis = Ftes_core.Synthesis
module Experiments = Ftes_core.Experiments
module Strategy = Ftes_optim.Strategy
module Problem = Ftes_ftcpg.Problem
module Ftcpg = Ftes_ftcpg.Ftcpg
module Cond = Ftes_ftcpg.Cond
module Table = Ftes_sched.Table
module Sim = Ftes_sim.Sim

(* ------------------------------------------------------------------ *)
(* Paper examples end to end                                           *)
(* ------------------------------------------------------------------ *)

let test_fig1_headline () =
  let rows = Experiments.fig1 () in
  let value label = List.assoc label rows in
  Helpers.check_float "130 ms worst case" 130.
    (value "P1, 2 checkpoints, 1 fault (Fig. 1c)");
  Helpers.check_float "145 ms re-execution" 145.
    (value "P1, 1 checkpoint, 1 fault (re-execution)");
  (* Checkpointing beats plain re-execution under a fault. *)
  Alcotest.(check bool) "checkpointing wins" true
    (value "P1, 2 checkpoints, 1 fault (Fig. 1c)"
    < value "P1, 1 checkpoint, 1 fault (re-execution)")

let test_fig2_tradeoff () =
  let rows = Experiments.fig2 () in
  let value label = List.assoc label rows in
  (* Active replication completes at the same time with or without a
     fault; primary-backup pays for the late backup start. *)
  Helpers.check_float "active = no-fault" (value "active replication, no fault")
    (value "active replication, 1 fault");
  Alcotest.(check bool) "primary-backup slower under fault" true
    (value "primary-backup, 1 fault" > value "active replication, 1 fault")

let test_fig4_cases () =
  let rows = Experiments.fig4 () in
  Alcotest.(check int) "three cases" 3 (List.length rows);
  List.iter (fun (_, v) -> Alcotest.(check bool) "positive" true (v > 0.)) rows

let test_fig6_schedule () =
  let t = Experiments.fig6 () in
  Alcotest.(check bool) "meets deadline" true (Table.meets_deadline t);
  Alcotest.(check (list string)) "validates" []
    (List.map Ftes_sim.Violation.to_string (Sim.validate t))

(* ------------------------------------------------------------------ *)
(* Synthesis end to end                                                *)
(* ------------------------------------------------------------------ *)

let test_synthesize_fig3_all_strategies () =
  let app = Ftes_app.App.fig3 () in
  let arch, wcet = Ftes_arch.Examples.fig3 () in
  List.iter
    (fun strategy ->
      let result =
        Synthesis.synthesize
          ~options:
            { Synthesis.default_options with strategy; compute_fto = true }
          ~app ~arch ~wcet ~k:1 ()
      in
      let name = Strategy.name_to_string strategy in
      Alcotest.(check bool) (name ^ " schedulable") true
        (Synthesis.schedulable result);
      Alcotest.(check bool) (name ^ " has fto") true
        (result.Synthesis.fto <> None);
      Alcotest.(check (list string)) (name ^ " validates") []
        (List.map Ftes_sim.Violation.to_string
           (Result.get_ok (Synthesis.validate result))))
    [ Strategy.MXR; Strategy.MX; Strategy.SFX; Strategy.MC_global ]

let test_tables_of_design () =
  match Synthesis.tables (Helpers.fig5_problem ()) with
  | Ok table ->
      Alcotest.(check bool) "meets deadline" true (Table.meets_deadline table)
  | Error l -> Alcotest.fail (Synthesis.limit_to_string l)

(* Beyond a limit of the table synthesis the result names the limit,
   the estimate alone decides schedulability, and validation does not
   run. *)
let test_synthesize_over_budget () =
  List.iter
    (fun (processes, limit) ->
      let p = Helpers.over_limit_problem ~processes in
      let r =
        Synthesis.synthesize ~app:p.Problem.app ~arch:p.Problem.arch
          ~wcet:p.Problem.wcet ~k:p.Problem.k ()
      in
      let why = Synthesis.Limit limit in
      let named = function
        | Error w -> Synthesis.no_tables_to_string w
        | Ok _ -> "ok"
      in
      let what = Synthesis.no_tables_to_string why in
      Alcotest.(check string) "no tables" what (named r.Synthesis.tables);
      Alcotest.(check string) "validation not run" what
        (named (Synthesis.validate r));
      Alcotest.(check string) "no diagnosis" what
        (named (Synthesis.diagnose r));
      Alcotest.(check bool) "estimate used"
        (r.Synthesis.estimate.Ftes_sched.Slack.length
        <= p.Problem.app.Ftes_app.App.deadline)
        (Synthesis.schedulable r))
    [
      (30, Synthesis.Vertices Ftcpg.vertex_cap);
      (8, Synthesis.Tracks Ftes_sched.Conditional.track_cap);
    ]

let test_merged_application_synthesis () =
  (* Two periodic applications merged over their hyperperiod, then
     synthesized and fault-injected. *)
  let mk_source period deadline =
    let b = Ftes_app.Graph.Builder.create () in
    let o = Ftes_app.Overheads.make ~alpha:2. ~mu:2. ~chi:1. in
    let a = Ftes_app.Graph.Builder.add_process b ~overheads:o ~name:"A" in
    let c = Ftes_app.Graph.Builder.add_process b ~overheads:o ~name:"B" in
    ignore (Ftes_app.Graph.Builder.add_message b ~src:a ~dst:c ~size:2.);
    {
      Ftes_app.Merge.graph = Ftes_app.Graph.Builder.build b;
      period;
      deadline;
      transparency = Ftes_app.Transparency.none;
    }
  in
  let app = Ftes_app.Merge.merge [ mk_source 400. 400.; mk_source 200. 180. ] in
  let nodes = 2 in
  let arch =
    Ftes_arch.Arch.make ~node_count:nodes
      ~bus:(Ftes_arch.Arch.default_bus ~node_count:nodes)
      ()
  in
  let n = Ftes_app.Graph.process_count app.Ftes_app.App.graph in
  let wcet = Ftes_arch.Wcet.create ~procs:n ~nodes in
  for pid = 0 to n - 1 do
    Ftes_arch.Wcet.set wcet ~pid ~nid:0 20.;
    Ftes_arch.Wcet.set wcet ~pid ~nid:1 25.
  done;
  let result = Synthesis.synthesize ~app ~arch ~wcet ~k:1 () in
  Alcotest.(check bool) "schedulable" true (Synthesis.schedulable result);
  Alcotest.(check (list string)) "validates" []
    (List.map Ftes_sim.Violation.to_string
       (Result.get_ok (Synthesis.validate result)));
  (* Local deadlines of the short application's instances are enforced
     by the validation above; check they exist. *)
  let g = app.Ftes_app.App.graph in
  let b1 = Option.get (Ftes_app.Graph.find_process g "B@1") in
  Alcotest.(check bool) "instance deadline present" true
    ((Ftes_app.Graph.process g b1).Ftes_app.Graph.local_deadline <> None)

(* ------------------------------------------------------------------ *)
(* Cross-validation fuzz                                               *)
(* ------------------------------------------------------------------ *)

let test_fuzz_end_to_end () =
  (* Mixed policies, transparency, several node counts and fault
     budgets: conditional schedules must always pass fault-injection
     validation. *)
  let violations = ref [] in
  for seed = 1 to 40 do
    let processes = 4 + (seed mod 8) in
    let nodes = 1 + (seed mod 3) in
    let k = 1 + (seed mod 2) in
    let p = Helpers.random_problem ~processes ~nodes ~k ~seed () in
    let t = Ftes_sched.Conditional.schedule (Ftcpg.build p) in
    match Sim.validate t with
    | [] -> ()
    | vs -> violations := (seed, List.length vs) :: !violations
  done;
  Alcotest.(check (list (pair int int))) "all instances clean" [] !violations

let test_single_bus_end_to_end () =
  (* The contention bus (non-TDMA) through the whole pipeline. *)
  let violations = ref 0 in
  for seed = 1 to 12 do
    let spec =
      {
        Ftes_workload.Gen.default with
        processes = 6 + (seed mod 5);
        nodes = 2;
        seed;
        frozen_msg_prob = 0.2;
      }
    in
    let app, _, wcet = Ftes_workload.Gen.instance spec in
    let arch =
      Ftes_arch.Arch.make ~node_count:2
        ~bus:(Ftes_arch.Bus.single ~bandwidth:1. ())
        ()
    in
    let policies = Problem.default_policies ~app ~k:1 in
    let mapping = Problem.fastest_mapping ~app ~wcet ~policies in
    let p = Problem.make ~app ~arch ~wcet ~k:1 ~policies ~mapping in
    let t = Ftes_sched.Conditional.schedule (Ftcpg.build p) in
    violations := !violations + List.length (Sim.validate t)
  done;
  Alcotest.(check int) "single-bus instances validate" 0 !violations

let test_simulated_makespans_match_tracks () =
  (* For every scenario, the simulator's makespan equals the track
     makespan recorded by the scheduler. *)
  let p = Helpers.random_problem ~processes:7 ~nodes:2 ~k:2 ~seed:77 () in
  let t = Ftes_sched.Conditional.schedule (Ftcpg.build p) in
  List.iter
    (fun tr ->
      let o = Sim.run t ~scenario:tr.Table.scenario in
      Helpers.check_float ~eps:1e-6 "makespan" tr.Table.makespan o.Sim.makespan)
    t.Table.tracks

(* ------------------------------------------------------------------ *)
(* Miniature evaluation experiments                                    *)
(* ------------------------------------------------------------------ *)

let quick_tabu =
  { Ftes_optim.Tabu.default_options with iterations = 40; sample = 8 }

let test_fig7_miniature () =
  let s = Experiments.fig7 ~seeds_per_point:1 ~sizes:[ 20 ] ~tabu:quick_tabu () in
  Alcotest.(check int) "three curves" 3 (List.length s.Experiments.curves);
  let dev name = List.hd (List.assoc name s.Experiments.curves) in
  (* The paper's ordering: MR is by far the worst, MX the closest to
     MXR, SFX in between; all deviations are non-negative. *)
  Alcotest.(check bool) "MR worst" true (dev "MR" >= dev "MX");
  Alcotest.(check bool) "MR dominates SFX" true (dev "MR" >= dev "SFX");
  Alcotest.(check bool) "MX non-negative" true (dev "MX" >= -1e-6);
  Alcotest.(check bool) "MR large" true (dev "MR" > 20.)

let test_fig8_miniature () =
  let s = Experiments.fig8 ~seeds_per_point:1 ~sizes:[ 40 ] ~tabu:quick_tabu () in
  match s.Experiments.curves with
  | [ (_, [ dev ]) ] ->
      (* Global checkpoint optimization reduces the overhead. *)
      Alcotest.(check bool) "positive deviation" true (dev >= 0.)
  | _ -> Alcotest.fail "unexpected series shape"

let test_transparency_tradeoff () =
  let s =
    Experiments.transparency_tradeoff ~seeds:2 ~levels:[ 0.; 1.0 ]
      ~processes:6 ()
  in
  match s.Experiments.curves with
  | (_, [ base_len; full_len ]) :: _ ->
      Helpers.check_float "baseline is 100%" 100. base_len;
      (* Transparency can only constrain the schedule further. *)
      Alcotest.(check bool) "full transparency costs time" true
        (full_len >= 100. -. 1e-6)
  | _ -> Alcotest.fail "unexpected series shape"

(* ------------------------------------------------------------------ *)
(* Reliability-driven choice of k                                      *)
(* ------------------------------------------------------------------ *)

module R = Ftes_core.Reliability

let test_reliability_poisson () =
  (* lambda = 1: P(N <= 0) = e^-1, P(N <= 1) = 2 e^-1. *)
  Helpers.check_float ~eps:1e-9 "k=0" (exp (-1.))
    (R.prob_at_most_k ~rate:0.01 ~period:100. ~k:0);
  Helpers.check_float ~eps:1e-9 "k=1"
    (2. *. exp (-1.))
    (R.prob_at_most_k ~rate:0.01 ~period:100. ~k:1);
  Helpers.check_float ~eps:1e-9 "zero rate" 1.
    (R.prob_at_most_k ~rate:0. ~period:100. ~k:0);
  Helpers.check_float ~eps:1e-9 "complement" 1.
    (R.prob_at_most_k ~rate:0.01 ~period:100. ~k:2
    +. R.prob_more_than_k ~rate:0.01 ~period:100. ~k:2)

let test_reliability_min_k () =
  let rate = 1e-4 and period = 500. in
  let k = R.min_k ~rate ~period ~target:0.999999 () in
  Alcotest.(check bool) "reaches target" true
    (R.prob_at_most_k ~rate ~period ~k >= 0.999999);
  Alcotest.(check bool) "minimal" true
    (k = 0 || R.prob_at_most_k ~rate ~period ~k:(k - 1) < 0.999999);
  Alcotest.check_raises "unreachable"
    (Invalid_argument
       "Reliability.min_k: even k = 2 does not reach the target") (fun () ->
      ignore (R.min_k ~max_k:2 ~rate:1. ~period:100. ~target:0.999999 ()))

let test_reliability_monotone () =
  let rate = 2e-3 and period = 300. in
  let rec go k =
    if k >= 8 then ()
    else begin
      Alcotest.(check bool) "monotone in k" true
        (R.prob_at_most_k ~rate ~period ~k
        <= R.prob_at_most_k ~rate ~period ~k:(k + 1) +. 1e-12);
      go (k + 1)
    end
  in
  go 0;
  Helpers.check_float ~eps:1e-9 "mission"
    (R.prob_at_most_k ~rate ~period ~k:2 ** 10.)
    (R.mission_reliability ~rate ~period ~k:2 ~cycles:10.);
  Helpers.check_float "cycles" 12000. (R.cycles_in ~period:300. ~hours:1.)

let test_k_for_size () =
  Alcotest.(check int) "20 -> 3" 3 (Experiments.k_for_size 20);
  Alcotest.(check int) "100 -> 7" 7 (Experiments.k_for_size 100)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let ftes_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "ftes.exe" ]

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* Runs [ftes args]; returns the exit code, stdout and stderr. *)
let run_ftes args =
  let out = Filename.temp_file "ftes-cli" ".out" in
  let err = Filename.temp_file "ftes-cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command ftes_exe ~stdout:out ~stderr:err args)
      in
      (code, read_file out, read_file err))

let with_temp_instance text f =
  let path = Filename.temp_file "ftes-cli" ".ftes" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

let test_cli_malformed_input () =
  with_temp_instance "k 1\ngarbage\n" (fun path ->
      List.iter
        (fun cmd ->
          let code, out, err = run_ftes [ cmd; path ] in
          Alcotest.(check int) (cmd ^ ": exit code") 2 code;
          Alcotest.(check string) (cmd ^ ": one-line message")
            (Printf.sprintf "ftes: %s:2: unknown directive \"garbage\"\n" path)
            err;
          Alcotest.(check string) (cmd ^ ": no output") "" out)
        [ "info"; "synthesize"; "simulate" ]);
  (* A directory exists but cannot be read. *)
  let dir = Filename.get_temp_dir_name () in
  let code, _, err = run_ftes [ "info"; dir ] in
  Alcotest.(check int) "directory: exit code" 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "directory: one-line message, got %S" err)
    true
    (String.starts_with ~prefix:(Printf.sprintf "ftes: %s: " dir) err
    && String.index err '\n' = String.length err - 1)

(* A missing FILE is bad input like any other: exit 2 and one line
   naming the path, not a command-line usage error. *)
let test_cli_missing_file () =
  let path = Filename.temp_file "ftes-cli" ".ftes" in
  Sys.remove path;
  List.iter
    (fun cmd ->
      let code, out, err = run_ftes [ cmd; path ] in
      Alcotest.(check int) (cmd ^ ": exit code") 2 code;
      Alcotest.(check string) (cmd ^ ": one-line message")
        (Printf.sprintf "ftes: %s: No such file or directory\n" path)
        err;
      Alcotest.(check string) (cmd ^ ": no output") "" out)
    [ "info"; "simulate"; "synthesize" ]

(* [ftes simulate] on a generated instance, byte for byte against
   outputs recorded from the list-walking simulator it replaced. *)
let test_cli_simulate_golden () =
  let code, text, _ =
    run_ftes [ "generate"; "-p"; "8"; "-n"; "2"; "-k"; "2"; "--seed"; "3" ]
  in
  Alcotest.(check int) "generate exit code" 0 code;
  let tight =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           if String.starts_with ~prefix:"deadline " l then "deadline 400"
           else l)
    |> String.concat "\n"
  in
  List.iter
    (fun (instance, args, golden) ->
      with_temp_instance instance (fun path ->
          let code, out, _ = run_ftes ("simulate" :: path :: args) in
          Alcotest.(check int) (golden ^ ": exit code") 0 code;
          Alcotest.(check string) golden
            (read_file (Filename.concat "golden" golden))
            out))
    [
      (text, [ "--faults"; "1"; "--trace" ], "simulate_faults1_trace.out");
      (text, [ "--faults"; "2" ], "simulate_faults2.out");
      (tight, [ "--faults"; "2"; "--jobs"; "1" ],
       "simulate_faults2_deadline400.out");
    ]

(* An instance beyond a limit of the table synthesis is not a crash:
   [ftes simulate] prints one line naming the limit and exits 3, and
   [ftes synthesize --validate] reports validation as not run, never
   as OK, and exits 3 as well; so does [--no-tables --validate]. *)
let test_cli_simulate_over_limit () =
  let not_run what args reason =
    let code, out, _ = run_ftes ("synthesize" :: args) in
    Alcotest.(check int) (what ^ ": synthesize exit code") 3 code;
    let verdict = Printf.sprintf "fault-injection validation: not run (%s)" reason in
    Alcotest.(check bool)
      (Printf.sprintf "%s: prints %S, got %S" what verdict out)
      true
      (Astring_contains.contains out verdict
      && not (Astring_contains.contains out "validation: OK"))
  in
  List.iter
    (fun (size, limit) ->
      let code, text, _ =
        run_ftes ([ "generate"; "-n"; "2"; "--seed"; "1" ] @ size)
      in
      Alcotest.(check int) "generate exit code" 0 code;
      with_temp_instance text (fun path ->
          let code, out, err = run_ftes [ "simulate"; path; "--faults"; "1" ] in
          Alcotest.(check int) (limit ^ ": exit code") 3 code;
          Alcotest.(check string) (limit ^ ": one-line message")
            (Printf.sprintf "ftes: %s: %s\n" path limit)
            err;
          Alcotest.(check string) (limit ^ ": no output") "" out;
          not_run limit [ path; "--validate"; "--jobs"; "1" ] limit;
          not_run (limit ^ ", --no-tables")
            [ path; "--no-tables"; "--validate"; "--jobs"; "1" ]
            "tables not requested: --no-tables"))
    [
      ( [ "-p"; "30"; "-k"; "9" ],
        "the FT-CPG exceeds the limit of 50000 vertices" );
      ( [ "-p"; "8"; "-k"; "9" ],
        "the scenario tree exceeds the limit of 20000 tracks" );
    ]

(* [ftes synthesize --portfolio] on a generated instance: the race's
   winner, its design and its tables, byte for byte at jobs 1 and 2. *)
let test_cli_portfolio_golden () =
  let code, text, _ =
    run_ftes [ "generate"; "-p"; "16"; "-n"; "3"; "-k"; "2"; "--seed"; "4" ]
  in
  Alcotest.(check int) "generate exit code" 0 code;
  let golden = read_file (Filename.concat "golden" "portfolio_p16.out") in
  with_temp_instance text (fun path ->
      List.iter
        (fun jobs ->
          let code, out, _ =
            run_ftes [ "synthesize"; path; "--portfolio"; "--jobs"; jobs ]
          in
          Alcotest.(check int) ("jobs " ^ jobs ^ ": exit code") 0 code;
          Alcotest.(check string) ("jobs " ^ jobs ^ ": portfolio_p16.out")
            golden out)
        [ "1"; "2" ])

(* [ftes experiment diagnose]: the grouped and shrunk counterexample
   report of a corrupted Fig. 6 table, byte for byte. *)
let test_cli_diagnose_golden () =
  let code, out, _ = run_ftes [ "experiment"; "diagnose" ] in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "diagnose.out"
    (read_file (Filename.concat "golden" "diagnose.out"))
    out

(* [-j/--jobs] takes a domain count of at least 1: anything else is a
   usage error (cmdliner's exit 124) before any work starts. So are the
   other numeric arguments out of their range. *)
let test_cli_jobs_validated () =
  let code, text, _ =
    run_ftes [ "generate"; "-p"; "6"; "-n"; "2"; "-k"; "1"; "--seed"; "5" ]
  in
  Alcotest.(check int) "generate exit code" 0 code;
  with_temp_instance text (fun path ->
      List.iter
        (fun (args, option, value) ->
          let what = String.concat " " (args @ [ option; value ]) in
          let sep = if String.starts_with ~prefix:"--" option then "=" else "" in
          let code, out, err = run_ftes (args @ [ option ^ sep ^ value ]) in
          Alcotest.(check int) (what ^ ": exit code") 124 code;
          Alcotest.(check string) (what ^ ": no output") "" out;
          Alcotest.(check bool)
            (Printf.sprintf "%s: names the option, got %S" what err)
            true
            (Astring_contains.contains err ("'" ^ option ^ "'")))
        (List.concat_map
           (fun args -> [ (args, "--jobs", "0"); (args, "--jobs", "abc") ])
           [
             [ "synthesize"; path ];
             [ "simulate"; path ];
             [ "corpus"; "run" ];
             [ "corpus"; "verify" ];
           ]
        @
        let reliability = [ "reliability"; "--rate=0.001"; "--period=100" ] in
        [
          ([ "synthesize"; path ], "--deadline", "-1");
          ([ "generate" ], "--processes", "0");
          ([ "generate" ], "--nodes", "0");
          ([ "generate" ], "-k", "-1");
          ([ "generate" ], "--frozen-procs", "2");
          ([ "generate" ], "--frozen-msgs", "-0.5");
          ([ "reliability"; "--period=100" ], "--rate", "-1");
          (reliability, "--target", "1.5");
          (reliability, "--period", "0");
          (reliability, "--mission-hours", "-1");
        ]);
      let code, _, _ = run_ftes [ "synthesize"; path; "-j"; "1" ] in
      Alcotest.(check int) "synthesize -j 1: exit code" 0 code);
  (* A rate no k reaches is one line and exit 3, not an exception. *)
  let code, out, err =
    run_ftes [ "reliability"; "--rate=1"; "--period=1000" ]
  in
  Alcotest.(check int) "unreachable target: exit code" 3 code;
  Alcotest.(check string) "unreachable target: no output" "" out;
  Alcotest.(check bool)
    (Printf.sprintf "unreachable target: one line, got %S" err)
    true
    (String.starts_with ~prefix:"ftes: " err
    && String.index err '\n' = String.length err - 1)

let () =
  Alcotest.run "integration"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "fig1 headline numbers" `Quick test_fig1_headline;
          Alcotest.test_case "fig2 trade-off" `Quick test_fig2_tradeoff;
          Alcotest.test_case "fig4 cases" `Quick test_fig4_cases;
          Alcotest.test_case "fig6 schedule validates" `Quick test_fig6_schedule;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "fig3 all strategies" `Slow
            test_synthesize_fig3_all_strategies;
          Alcotest.test_case "tables of a fixed design" `Quick
            test_tables_of_design;
          Alcotest.test_case "over budget falls back" `Quick
            test_synthesize_over_budget;
          Alcotest.test_case "merged application" `Quick
            test_merged_application_synthesis;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "fuzz end to end" `Slow test_fuzz_end_to_end;
          Alcotest.test_case "single bus end to end" `Slow
            test_single_bus_end_to_end;
          Alcotest.test_case "makespans match tracks" `Quick
            test_simulated_makespans_match_tracks;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig7 miniature" `Slow test_fig7_miniature;
          Alcotest.test_case "fig8 miniature" `Slow test_fig8_miniature;
          Alcotest.test_case "transparency trade-off" `Slow
            test_transparency_tradeoff;
          Alcotest.test_case "k for size" `Quick test_k_for_size;
        ] );
      ( "cli",
        [
          Alcotest.test_case "malformed input exits 2" `Quick
            test_cli_malformed_input;
          Alcotest.test_case "simulate output = golden" `Quick
            test_cli_simulate_golden;
          Alcotest.test_case "--jobs below 1 is a usage error" `Quick
            test_cli_jobs_validated;
          Alcotest.test_case "missing file exits 2" `Quick
            test_cli_missing_file;
          Alcotest.test_case "simulate over a synthesis limit exits 3" `Quick
            test_cli_simulate_over_limit;
          Alcotest.test_case "portfolio output = golden" `Quick
            test_cli_portfolio_golden;
          Alcotest.test_case "experiment diagnose output = golden" `Quick
            test_cli_diagnose_golden;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "poisson tail" `Quick test_reliability_poisson;
          Alcotest.test_case "min k" `Quick test_reliability_min_k;
          Alcotest.test_case "monotonicity + mission" `Quick
            test_reliability_monotone;
        ] );
    ];
  Ftes_util.Par.shutdown ()
