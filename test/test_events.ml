(* Tests for the live event stream: emission must never steer the
   search (bit-identical trajectories with events on or off, for any
   jobs value), the NDJSON rendering must parse line by line with the
   expected payloads present, full rings must drop-and-count rather
   than block or crash, and unwritable output files must fail the CLI
   before any synthesis. *)

module Events = Ftes_util.Events
module Telemetry = Ftes_util.Telemetry
module Tabu = Ftes_optim.Tabu
module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Graph = Ftes_app.Graph
module Synthesis = Ftes_core.Synthesis
module Manifest = Ftes_corpus.Manifest

let quick_opts =
  { Tabu.default_options with iterations = 30; sample = 8; jobs = 2 }

(* Full design configuration as a comparable string (same idiom as
   test_telemetry.ml / test_evalcache.ml). *)
let config_string (p : Problem.t) =
  let g = Problem.graph p in
  String.concat ";"
    (List.init (Graph.process_count g) (fun pid ->
         Printf.sprintf "%d=%s@[%s]" pid
           (Format.asprintf "%a" Ftes_app.Policy.pp p.Problem.policies.(pid))
           (String.concat ","
              (List.map string_of_int
                 (Mapping.copies p.Problem.mapping ~pid)))))

(* Run [f] with recording enabled and a collecting sink; return the
   delivered records in delivery order. Leaves the process-wide switch
   off so suites stay independent of execution order. *)
let collect_events f =
  Events.enable ();
  let acc = ref [] in
  let id = Events.add_sink (fun e -> acc := e :: !acc) in
  Fun.protect
    ~finally:(fun () ->
      Events.drain ();
      Events.remove_sink id;
      Events.disable ())
    f;
  List.rev !acc

let is_incumbent (e : Events.event) =
  match e.Events.payload with Events.Incumbent _ -> true | _ -> false

let validation_backend (e : Events.event) =
  match e.Events.payload with
  | Events.Validation_progress { backend; _ } -> Some backend
  | _ -> None

let phase_edge (e : Events.event) =
  match e.Events.payload with
  | Events.Span_begin { phase = true; _ } -> Some `Start
  | Events.Span_end { span = { phase = true; _ }; _ } -> Some `Finish
  | _ -> None

(* ------------------------------------------------------------------ *)
(* NDJSON stream: well-formed, parseable, expected payloads            *)
(* ------------------------------------------------------------------ *)

let synthesize_and_validate ~jobs () =
  let app, arch, wcet =
    Ftes_workload.Gen.instance
      { Ftes_workload.Gen.default with processes = 6; nodes = 2; seed = 5 }
  in
  let options =
    { Synthesis.default_options with tabu = { quick_opts with jobs } }
  in
  let result = Synthesis.synthesize ~options ~app ~arch ~wcet ~k:2 () in
  ignore (Synthesis.validate ~jobs result)

let test_ndjson_well_formed () =
  List.iter
    (fun jobs ->
      let events = collect_events (synthesize_and_validate ~jobs) in
      let ctx s = Printf.sprintf "jobs=%d: %s" jobs s in
      Alcotest.(check bool) (ctx "events delivered") true (events <> []);
      (* Each domain's records arrive in recording order, and the
         rendered stream in global sequence order. Only a pool worker's
         own [par.worker] span may end after its fan-out has returned,
         and land in a later drain than records with larger [seq]. *)
      let increasing label evs =
        ignore
          (List.fold_left
             (fun prev (e : Events.event) ->
               Alcotest.(check bool) (ctx label) true (e.Events.seq > prev);
               e.Events.seq)
             0 evs)
      in
      List.iter
        (fun dom ->
          increasing
            (Printf.sprintf "domain %d: seq strictly increases" dom)
            (List.filter (fun (e : Events.event) -> e.dom = dom) events))
        (List.sort_uniq compare
           (List.map (fun (e : Events.event) -> e.dom) events));
      let rendered = List.filter (fun e -> Events.to_json e <> None) events in
      increasing "seq strictly increases" rendered;
      let count p = List.length (List.filter p events) in
      Alcotest.(check bool)
        (ctx "at least one incumbent") true
        (count is_incumbent >= 1);
      Alcotest.(check bool)
        (ctx "at least one explicit validation-progress") true
        (count (fun e -> validation_backend e = Some "explicit") >= 1);
      let starts = count (fun e -> phase_edge e = Some `Start)
      and finishes = count (fun e -> phase_edge e = Some `Finish) in
      Alcotest.(check int) (ctx "every phase closes") starts finishes;
      Alcotest.(check bool) (ctx "phases recorded") true (starts >= 1);
      (* Every rendered line is one complete JSON object carrying the
         envelope fields plus a type tag. *)
      List.iter
        (fun e ->
          let line = Option.get (Events.to_json e) in
          match Manifest.json_of_string line with
          | Error m ->
              Alcotest.fail
                (ctx (Printf.sprintf "unparseable line %S: %s" line m))
          | Ok (Manifest.Jobj fields) ->
              List.iter
                (fun k ->
                  Alcotest.(check bool)
                    (ctx (Printf.sprintf "field %S present" k))
                    true
                    (List.mem_assoc k fields))
                [ "seq"; "t"; "dom"; "type" ]
          | Ok _ ->
              Alcotest.fail
                (ctx (Printf.sprintf "line is not an object: %S" line)))
        rendered)
    [ 1; 4 ]

let test_symbolic_progress_events () =
  let table =
    Ftes_sched.Conditional.schedule
      (Ftes_ftcpg.Ftcpg.build (Helpers.fig5_problem ()))
  in
  let events =
    collect_events (fun () ->
        ignore (Ftes_sim.Sim.validate ~jobs:1 ~mode:`Symbolic table))
  in
  Alcotest.(check bool) "symbolic validation-progress emitted" true
    (List.exists (fun e -> validation_backend e = Some "symbolic") events)

let test_corpus_outcome_events () =
  let instances =
    match Ftes_corpus.Registry.all () with
    | a :: b :: c :: _ -> [ a; b; c ]
    | l -> l
  in
  let events =
    collect_events (fun () ->
        ignore (Ftes_corpus.Runner.run ~jobs:2 instances))
  in
  let outcomes =
    List.filter_map
      (fun (e : Events.event) ->
        match e.Events.payload with
        | Events.Corpus_outcome { id; _ } -> Some id
        | _ -> None)
      events
  in
  Alcotest.(check (list string))
    "one corpus-outcome per instance, in input order"
    (List.map (fun i -> i.Ftes_corpus.Instance.id) instances)
    outcomes

(* ------------------------------------------------------------------ *)
(* CLI: unopenable output files fail before the run                     *)
(* ------------------------------------------------------------------ *)

let test_cli_unwritable_output () =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "ftes.exe" ]
  in
  let inst = Filename.temp_file "ftes-cli" ".ftes" in
  let out = Filename.temp_file "ftes-cli" ".out" in
  let err = Filename.temp_file "ftes-cli" ".err" in
  let kept = Filename.temp_file "ftes-cli" ".ndjson" in
  let fresh = Filename.temp_file "ftes-cli" ".json" in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ inst; out; err; kept; fresh ])
    (fun () ->
      let app, arch, wcet =
        Ftes_workload.Gen.instance
          { Ftes_workload.Gen.default with processes = 6; nodes = 2; seed = 5 }
      in
      Ftes_dsl.Dsl.save inst { Ftes_dsl.Dsl.app; arch; wcet; k = 1 };
      (* A path below a regular file can never be created. *)
      let bad = Filename.concat inst "out.json" in
      List.iter
        (fun flag ->
          let code =
            Sys.command
              (Filename.quote_command exe ~stdout:out ~stderr:err
                 [ "synthesize"; inst; "--validate"; flag; bad ])
          in
          let prefix = Printf.sprintf "ftes: cannot write %s: " bad in
          let e = read err in
          Alcotest.(check int) (flag ^ ": exit code") 2 code;
          Alcotest.(check bool)
            (Printf.sprintf "%s: one-line message, got %S" flag e)
            true
            (String.starts_with ~prefix e
            && String.index e '\n' = String.length e - 1);
          Alcotest.(check string) (flag ^ ": nothing synthesized") ""
            (read out))
        [ "--events"; "--trace"; "--metrics-json" ];
      (* A good path next to a bad one: the existing file keeps its
         contents and the file the run created is removed again. *)
      Out_channel.with_open_bin kept (fun oc -> output_string oc "keep\n");
      Sys.remove fresh;
      let code =
        Sys.command
          (Filename.quote_command exe ~stdout:out ~stderr:err
             [
               "synthesize"; inst; "--events"; kept; "--metrics-json"; fresh;
               "--trace"; bad;
             ])
      in
      Alcotest.(check int) "good + bad: exit code" 2 code;
      Alcotest.(check string) "good + bad: existing file untouched" "keep\n"
        (read kept);
      Alcotest.(check bool) "good + bad: created file removed" false
        (Sys.file_exists fresh))

(* ------------------------------------------------------------------ *)
(* Determinism: events observe, they never steer                        *)
(* ------------------------------------------------------------------ *)

let test_trajectory_identity () =
  List.iter
    (fun seed ->
      let p =
        Helpers.random_problem ~frozen:false ~mixed_policies:false
          ~processes:10 ~nodes:3 ~k:2 ~seed ()
      in
      let run ~events ~jobs =
        if events then Events.enable () else Events.disable ();
        Fun.protect ~finally:Events.disable (fun () ->
            let b, l = Tabu.optimize { quick_opts with jobs } p in
            (l, config_string b))
      in
      let ref_len, ref_cfg = run ~events:false ~jobs:1 in
      List.iter
        (fun (events, jobs) ->
          let l, c = run ~events ~jobs in
          Helpers.check_float
            (Printf.sprintf "seed %d events=%b jobs=%d: length" seed events
               jobs)
            ref_len l;
          Alcotest.(check string)
            (Printf.sprintf "seed %d events=%b jobs=%d: config" seed events
               jobs)
            ref_cfg c)
        [ (true, 1); (true, 4); (false, 4) ])
    [ 3; 11 ]

(* ------------------------------------------------------------------ *)
(* Bounded rings: overflow drops and counts, never blocks or crashes    *)
(* ------------------------------------------------------------------ *)

let lines_of file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

(* The ring is filled past [capacity] while spans are open, so one
   span loses its end and one phase its begin. Drops are counted per
   record, spans and events alike, and none of the folds raises or
   reports a span that did not both begin and end. *)
let test_bounded_ring_drops () =
  Telemetry.reset ();
  Events.enable ();
  let seen = ref 0 in
  let ndjson = Filename.temp_file "ftes-events" ".ndjson" in
  let oc = open_out ndjson in
  let ids =
    List.map Events.add_sink
      [ (fun _ -> incr seen); Events.ndjson_sink oc; Telemetry.span_sink ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Events.remove_sink ids;
      Events.disable ();
      close_out_noerr oc;
      Sys.remove ndjson)
    (fun () ->
      let filler () = Events.emit (Events.Worker_start { member = "filler" }) in
      Events.with_span "kept" ignore;
      Events.with_span "unclosed" (fun () ->
          (* Two records of "kept" and the begin of "unclosed" fill three
             slots; the last three fillers find the ring full. *)
          for _ = 1 to Events.capacity do
            filler ()
          done;
          Alcotest.(check int) "overflow counted, not blocked" 3
            (Events.dropped ()));
      Alcotest.(check int) "a span end is dropped like an event" 4
        (Events.dropped ());
      Events.with_phase "orphan" (fun () ->
          (* The phase's begin was dropped, then its edge drained. *)
          Alcotest.(check int) "a span begin is dropped like an event" 5
            (Events.dropped ());
          Alcotest.(check int) "exactly capacity records delivered"
            Events.capacity !seen);
      Events.drain ();
      (* The drain freed the ring: recording resumes without drops. *)
      filler ();
      Events.drain ();
      Alcotest.(check int) "later records delivered"
        (Events.capacity + 3) !seen;
      Alcotest.(check int) "dropped unchanged" 5 (Events.dropped ());
      (* The folds keep exactly the one span that began and ended. *)
      let names =
        List.concat_map
          (fun (_, evs) ->
            List.filter_map
              (fun (e : Events.event) ->
                match e.payload with
                | Events.Span_begin s -> Some s.name
                | _ -> None)
              evs)
          (Telemetry.dump ())
      in
      Alcotest.(check (list string)) "only the closed span is kept"
        [ "kept" ] names;
      let summary = Format.asprintf "%a" Telemetry.pp_summary () in
      List.iter
        (fun (name, present) ->
          Alcotest.(check bool)
            (Printf.sprintf "summary names %S: %b" name present)
            present
            (Astring_contains.contains summary name))
        [ ("kept", true); ("unclosed", false); ("orphan", false) ];
      let trace = Telemetry.to_chrome_json () in
      (match Manifest.json_of_string trace with
      | Ok (Manifest.Jarr items) ->
          let phases =
            List.filter_map
              (function
                | Manifest.Jobj fields -> (
                    match List.assoc_opt "ph" fields with
                    | Some (Manifest.Jstr ph) when ph = "B" || ph = "E" ->
                        Some ph
                    | _ -> None)
                | _ -> None)
              items
          in
          Alcotest.(check (list string)) "one B/E pair in the trace"
            [ "B"; "E" ] phases
      | Ok _ -> Alcotest.fail "trace is not an array"
      | Error m -> Alcotest.fail m);
      (* The orphan end renders as the phase-finish it is; no
         phase-start is invented for it. *)
      close_out oc;
      let types =
        List.map
          (fun line ->
            match Manifest.json_of_string line with
            | Ok (Manifest.Jobj fields) -> (
                match List.assoc_opt "type" fields with
                | Some (Manifest.Jstr t) -> t
                | _ -> Alcotest.failf "untyped line %S" line)
            | _ -> Alcotest.failf "unparseable line %S" line)
          (lines_of ndjson)
      in
      let count t = List.length (List.filter (( = ) t) types) in
      Alcotest.(check (list int))
        "NDJSON: phase-start, phase-finish, gc-sample, worker-start lines"
        [ 0; 1; 1; Events.capacity - 3 + 1 ]
        (List.map count
           [ "phase-start"; "phase-finish"; "gc-sample"; "worker-start" ]);
      Events.reset ();
      Alcotest.(check int) "reset zeroes the counter" 0 (Events.dropped ()))

let test_disabled_is_silent () =
  Events.disable ();
  let seen = ref 0 in
  let id = Events.add_sink (fun _ -> incr seen) in
  Fun.protect
    ~finally:(fun () -> Events.remove_sink id)
    (fun () ->
      Events.emit (Events.Worker_start { member = "ghost" });
      let v = Events.with_phase "ghost" (fun () -> 41 + 1) in
      Alcotest.(check int) "with_phase returns the thunk's value" 42 v;
      Events.drain ();
      Alcotest.(check int) "nothing delivered" 0 !seen)

let test_with_phase_exception () =
  let events =
    collect_events (fun () ->
        match Events.with_phase "doomed" (fun () -> failwith "expected") with
        | () -> Alcotest.fail "exception swallowed"
        | exception Failure m ->
            Alcotest.(check string) "exception re-raised" "expected" m)
  in
  let finishes =
    List.filter_map
      (fun (e : Events.event) ->
        match e.Events.payload with
        | Events.Span_end { span = { phase = true; name; _ }; _ } -> Some name
        | _ -> None)
      events
  in
  Alcotest.(check (list string)) "finish event recorded" [ "doomed" ]
    finishes

let () =
  Alcotest.run "events"
    [
      ( "stream",
        [
          Alcotest.test_case "synthesize + validate NDJSON (jobs 1, 4)"
            `Quick test_ndjson_well_formed;
          Alcotest.test_case "symbolic validation emits progress" `Quick
            test_symbolic_progress_events;
          Alcotest.test_case "corpus runner emits one outcome per instance"
            `Quick test_corpus_outcome_events;
          Alcotest.test_case "cli: unwritable output fails fast" `Quick
            test_cli_unwritable_output;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tabu: events x jobs matrix" `Slow
            test_trajectory_identity;
        ] );
      ( "bounded buffers",
        [
          Alcotest.test_case "full ring drops and counts" `Quick
            test_bounded_ring_drops;
          Alcotest.test_case "disabled emits nothing" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "exception closes phase" `Quick
            test_with_phase_exception;
        ] );
    ];
  Ftes_util.Par.shutdown ()
