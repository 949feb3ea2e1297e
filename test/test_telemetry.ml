(* Tests for the telemetry layer: recording must never steer the search
   (bit-identical trajectories with telemetry on or off, for any jobs
   value), span streams must be well formed (properly nested, monotone
   timestamps), counters must agree with the legacy per-cache stats,
   and the Chrome trace-event export must be valid JSON. *)

module Telemetry = Ftes_util.Telemetry
module Events = Ftes_util.Events
module Evalcache = Ftes_optim.Evalcache
module Tabu = Ftes_optim.Tabu
module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Graph = Ftes_app.Graph
module Synthesis = Ftes_core.Synthesis

(* Full design configuration as a comparable string (same idiom as
   test_evalcache.ml). *)
let config_string (p : Problem.t) =
  let g = Problem.graph p in
  String.concat ";"
    (List.init (Graph.process_count g) (fun pid ->
         Printf.sprintf "%d=%s@[%s]" pid
           (Format.asprintf "%a" Ftes_app.Policy.pp p.Problem.policies.(pid))
           (String.concat ","
              (List.map string_of_int
                 (Mapping.copies p.Problem.mapping ~pid)))))

let quick_opts =
  { Tabu.default_options with iterations = 30; sample = 8; jobs = 2 }

(* Record with the span log kept. Every test leaves the process-wide
   switch off and the log unsubscribed so suites stay independent of
   their execution order. *)
let recording f =
  Telemetry.reset ();
  Events.enable ();
  let log = Events.add_sink Telemetry.span_sink in
  Fun.protect
    ~finally:(fun () ->
      Events.disable ();
      Events.remove_sink log)
    f

(* ------------------------------------------------------------------ *)
(* Determinism: telemetry observes, it never steers                     *)
(* ------------------------------------------------------------------ *)

let test_trajectory_identity () =
  List.iter
    (fun seed ->
      let p =
        Helpers.random_problem ~frozen:false ~mixed_policies:false
          ~processes:10 ~nodes:3 ~k:2 ~seed ()
      in
      let run ~telemetry ~jobs =
        if telemetry then Events.enable () else Events.disable ();
        Fun.protect ~finally:Events.disable (fun () ->
            let b, l = Tabu.optimize { quick_opts with jobs } p in
            (l, config_string b))
      in
      let ref_len, ref_cfg = run ~telemetry:false ~jobs:1 in
      List.iter
        (fun (telemetry, jobs) ->
          let l, c = run ~telemetry ~jobs in
          Helpers.check_float
            (Printf.sprintf "seed %d telemetry=%b jobs=%d: length" seed
               telemetry jobs)
            ref_len l;
          Alcotest.(check string)
            (Printf.sprintf "seed %d telemetry=%b jobs=%d: config" seed
               telemetry jobs)
            ref_cfg c)
        [ (true, 1); (true, 4); (false, 4) ])
    [ 3; 11 ]

(* ------------------------------------------------------------------ *)
(* Span streams: nesting, timestamps, expected phases                   *)
(* ------------------------------------------------------------------ *)

(* Replay one domain's span records against a stack: every end must
   close the innermost open span, every begin must name the innermost
   open span as its parent, and timestamps never go backwards. *)
let check_stream dom events =
  let stack = ref [] in
  let last_ts = ref neg_infinity in
  List.iter
    (fun (ev : Events.event) ->
      (match ev.payload with
      | Events.Span_begin { id; parent; _ } ->
          let expected_parent =
            match !stack with [] -> 0 | top :: _ -> top
          in
          Alcotest.(check int)
            (Printf.sprintf "domain %d: parent of span %d" dom id)
            expected_parent parent;
          stack := id :: !stack
      | Events.Span_end { span = { id; _ }; _ } -> (
          match !stack with
          | top :: rest ->
              Alcotest.(check int)
                (Printf.sprintf "domain %d: end closes innermost span" dom)
                top id;
              stack := rest
          | [] -> Alcotest.fail (Printf.sprintf "domain %d: orphan end" dom))
      | _ -> Alcotest.fail (Printf.sprintf "domain %d: not a span" dom));
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: non-decreasing ts" dom)
        true (ev.t >= !last_ts);
      last_ts := ev.t)
    events;
  Alcotest.(check (list int))
    (Printf.sprintf "domain %d: all spans closed" dom)
    [] !stack

let span_names dump =
  List.concat_map
    (fun (_, evs) ->
      List.filter_map
        (fun (ev : Events.event) ->
          match ev.payload with
          | Events.Span_begin { name; _ } -> Some name
          | _ -> None)
        evs)
    dump
  |> List.sort_uniq compare

let test_span_well_formedness () =
  recording (fun () ->
      (* The raw span records as drained, before [dump] leaves out the
         spans whose begin or end was lost. *)
      let raw = ref [] in
      let collect (ev : Events.event) =
        match ev.payload with
        | Events.Span_begin _ | Events.Span_end _ -> raw := ev :: !raw
        | _ -> ()
      in
      let sink = Events.add_sink collect in
      Fun.protect ~finally:(fun () -> Events.remove_sink sink) (fun () ->
          let app, arch, wcet =
            Ftes_workload.Gen.instance
              {
                Ftes_workload.Gen.default with
                processes = 6;
                nodes = 2;
                seed = 5;
              }
          in
          let options =
            { Synthesis.default_options with tabu = quick_opts }
          in
          let result =
            Synthesis.synthesize ~options ~app ~arch ~wcet ~k:2 ()
          in
          let violations = Result.get_ok (Synthesis.validate ~jobs:2 result) in
          Alcotest.(check (list string))
            "tables validate" []
            (List.map Ftes_sim.Violation.to_string violations);
          (* A pool worker records its span end after the fan-out it
             served returns; joining the workers publishes every
             record. *)
          Ftes_util.Par.shutdown ();
          Events.drain ());
      Alcotest.(check int) "no record dropped" 0 (Events.dropped ());
      let raw = List.rev !raw in
      List.iter
        (fun dom ->
          check_stream dom
            (List.filter (fun (ev : Events.event) -> ev.dom = dom) raw))
        (List.sort_uniq compare
           (List.map (fun (ev : Events.event) -> ev.dom) raw));
      let dump = Telemetry.dump () in
      Alcotest.(check int) "dump keeps every span record" (List.length raw)
        (List.length (List.concat_map snd dump));
      let names = span_names dump in
      List.iter
        (fun expected ->
          Alcotest.(check bool)
            (Printf.sprintf "span %S recorded" expected)
            true (List.mem expected names))
        [
          "synthesize"; "strategy.MXR"; "strategy.nft-baseline";
          "tabu.optimize"; "tabu.iter"; "descent.policy_sweep";
          "synthesize.tables"; "ftcpg.build"; "sched.conditional";
          "sched.fix_iter"; "sched.table.assemble"; "synthesize.estimate";
          "sim.validate";
        ];
      (* Assembly is its own span inside the conditional scheduler, a
         sibling of the DFS walk ([sched.fix_iter]). *)
      let evs = List.concat_map snd dump in
      let begins =
        List.filter_map
          (fun (ev : Events.event) ->
            match ev.payload with Events.Span_begin s -> Some s | _ -> None)
          evs
      in
      let name_of id =
        List.find_map
          (fun (s : Events.span) -> if s.id = id then Some s.name else None)
          begins
      in
      List.iter
        (fun (s : Events.span) ->
          if s.name = "sched.table.assemble" then
            Alcotest.(check (option string))
              "assembly nests in sched.conditional" (Some "sched.conditional")
              (name_of s.parent))
        begins)

let test_exception_closes_span () =
  recording (fun () ->
      (match
         Events.with_span "doomed" (fun () -> failwith "expected")
       with
      | () -> Alcotest.fail "exception swallowed"
      | exception Failure m ->
          Alcotest.(check string) "exception re-raised" "expected" m);
      let evs = List.concat_map snd (Telemetry.dump ()) in
      Alcotest.(check int) "begin + end recorded" 2 (List.length evs);
      List.iter (fun (dom, evs) -> check_stream dom evs) (Telemetry.dump ()))

let test_disabled_records_nothing () =
  Telemetry.reset ();
  Events.disable ();
  let v = Events.with_span "ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span returns the thunk's value" 42 v;
  let c = Telemetry.counter "test.ghost" in
  Telemetry.incr c;
  Telemetry.add c 5;
  Telemetry.set_gauge "test.ghost_gauge" 1.0;
  Alcotest.(check int) "counter unchanged" 0 (Telemetry.counter_value c);
  Alcotest.(check int) "no events" 0
    (List.length (List.concat_map snd (Telemetry.dump ())));
  Alcotest.(check (list (pair string (float 0.)))) "no gauges" []
    (Telemetry.gauges ())

(* ------------------------------------------------------------------ *)
(* Counter totals: telemetry agrees with the legacy accounting          *)
(* ------------------------------------------------------------------ *)

(* There is one switch: [Events.enable] alone records the counters, and
   both modules read it. *)
let test_evalcache_counters_match_stats () =
  let p =
    Helpers.random_problem ~frozen:false ~mixed_policies:false ~processes:8
      ~nodes:3 ~k:2 ~seed:9 ()
  in
  Telemetry.reset ();
  Events.enable ();
  Fun.protect ~finally:Events.disable (fun () ->
      Alcotest.(check (pair bool bool))
        "both modules see the switch" (true, true)
        (Telemetry.enabled (), Events.enabled ());
      let cache = Evalcache.create () in
      let _, _ = Tabu.optimize { quick_opts with cache = Some cache } p in
      let s = Evalcache.stats cache in
      let v name = Telemetry.counter_value (Telemetry.counter name) in
      Alcotest.(check bool) "cache saw traffic" true (s.Evalcache.lookups > 0);
      Alcotest.(check int) "hits" s.Evalcache.hits (v "evalcache.hits");
      Alcotest.(check int) "misses" s.Evalcache.misses (v "evalcache.misses");
      Alcotest.(check int) "inserts" s.Evalcache.inserts (v "evalcache.inserts"));
  Alcotest.(check (pair bool bool)) "both modules see it off" (false, false)
    (Telemetry.enabled (), Events.enabled ())

let test_sim_scenario_counter () =
  recording (fun () ->
      let table =
        Ftes_sched.Conditional.schedule
          (Ftes_ftcpg.Ftcpg.build (Helpers.fig5_problem ()))
      in
      let scenarios =
        List.length (Sim_oracle.scenarios table.Ftes_sched.Table.ftcpg)
      in
      let violations = Ftes_sim.Sim.validate ~jobs:2 table in
      Alcotest.(check int) "fig5 tables are valid" 0 (List.length violations);
      Alcotest.(check int) "every scenario counted" scenarios
        (Telemetry.counter_value (Telemetry.counter "sim.scenarios")))

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                  *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON reader — just enough to prove the export parses. *)
let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true
                                     | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; members ()
        | Some '}' -> incr pos
        | _ -> fail "object"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elements () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; elements ()
        | Some ']' -> incr pos
        | _ -> fail "array"
      in
      elements ()
  and string_lit () =
    expect '"';
    let rec chars () =
      match peek () with
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
          | Some 'u' ->
              incr pos;
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
                | _ -> fail "unicode escape"
              done
          | _ -> fail "escape");
          chars ()
      | Some c when Char.code c >= 0x20 -> incr pos; chars ()
      | _ -> fail "string"
    in
    chars ()
  and number () =
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while (match peek () with Some c -> numchar c | None -> false) do
      incr pos
    done;
    if !pos = start then fail "number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail "number"
  and keyword () =
    let kw w =
      let l = String.length w in
      !pos + l <= n && String.sub s !pos l = w && (pos := !pos + l; true)
    in
    if not (kw "true" || kw "false" || kw "null") then fail "keyword"
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing input"

let count_occurrences needle hay =
  let nl = String.length needle in
  let rec go acc i =
    if i + nl > String.length hay then acc
    else if String.sub hay i nl = needle then go (acc + 1) (i + 1)
    else go acc (i + 1)
  in
  go 0 0

let test_chrome_export () =
  recording (fun () ->
      Events.with_span ~cat:"test"
        ~args:
          [
            ("quote", Events.Str "she said \"hi\"\nand left");
            ("count", Events.Int 3);
            ("ratio", Events.Float 0.5);
            ("ok", Events.Bool true);
          ]
        "outer"
        (fun () ->
          Events.with_span "inner" (fun () -> ());
          Events.with_span "inner" (fun () -> ()));
      Telemetry.incr (Telemetry.counter "test.export");
      let json = Telemetry.to_chrome_json () in
      (match parse_json json with
      | () -> ()
      | exception Failure m -> Alcotest.fail m);
      Alcotest.(check int) "begin events"
        (count_occurrences "\"ph\": \"B\"" json)
        (count_occurrences "\"ph\": \"E\"" json);
      Alcotest.(check int) "three spans" 3
        (count_occurrences "\"ph\": \"B\"" json);
      Alcotest.(check bool) "counter sample present" true
        (count_occurrences "\"ph\": \"C\"" json >= 1))

(* ------------------------------------------------------------------ *)
(* Metrics exports: JSON snapshot and Prometheus exposition             *)
(* ------------------------------------------------------------------ *)

let test_metrics_json_export () =
  recording (fun () ->
      Telemetry.incr (Telemetry.counter "test.metrics");
      Telemetry.set_gauge "test.metrics_gauge" 2.5;
      let h = Telemetry.histogram "test.metrics_hist" in
      Telemetry.observe h 0.01;
      Telemetry.observe h 1e9;
      let json = Telemetry.to_metrics_json () in
      (match parse_json json with
      | () -> ()
      | exception Failure m -> Alcotest.fail m);
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%S present" needle)
            true
            (count_occurrences needle json >= 1))
        [
          "\"counters\""; "\"gauges\""; "\"histograms\"";
          "\"test.metrics\": 1"; "\"test.metrics_gauge\": 2.5";
          "\"test.metrics_hist\""; "\"+Inf\"";
        ])

let () =
  Alcotest.run "telemetry"
    [
      ( "determinism",
        [
          Alcotest.test_case "tabu: telemetry x jobs matrix" `Slow
            test_trajectory_identity;
        ] );
      ( "spans",
        [
          Alcotest.test_case "synthesize + validate stream is well formed"
            `Quick test_span_well_formedness;
          Alcotest.test_case "exception closes span" `Quick
            test_exception_closes_span;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "counters",
        [
          Alcotest.test_case "evalcache telemetry = legacy stats" `Quick
            test_evalcache_counters_match_stats;
          Alcotest.test_case "sim.scenarios counts every replay" `Quick
            test_sim_scenario_counter;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace JSON parses" `Quick
            test_chrome_export;
          Alcotest.test_case "metrics JSON snapshot parses" `Quick
            test_metrics_json_export;
        ] );
    ];
  Ftes_util.Par.shutdown ()
