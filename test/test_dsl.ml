(* Tests for the textual instance format: parsing, printing,
   round-trips (including randomized ones) and error reporting. *)

module Dsl = Ftes_dsl.Dsl
module Gen = Ftes_workload.Gen
module Graph = Ftes_app.Graph
module App = Ftes_app.App

let sample =
  {|
# comment line
k 2
deadline 300
period 300
nodes 2
bus tdma slot 10 bandwidth 1

process P1 alpha 10 mu 10 chi 5
process P2 alpha 10 mu 10 chi 5 frozen
process P3 alpha 10 mu 10 chi 5 release 20 local-deadline 200

message m1 from P1 to P2 size 4
message m2 from P1 to P3 size 4 frozen

wcet P1 20 30
wcet P2 40 60
wcet P3 60 X
|}

(* [parse] on a document the test expects to be valid. *)
let parse text =
  match Dsl.of_string text with
  | Ok d -> d
  | Error (Dsl.Syntax { line; message }) ->
      Alcotest.failf "unexpected parse error at line %d: %s" line message
  | Error (Dsl.Unreadable m) -> Alcotest.failf "unexpected read error: %s" m

let test_parse_sample () =
  let d = parse sample in
  Alcotest.(check int) "k" 2 d.Dsl.k;
  let g = d.Dsl.app.App.graph in
  Alcotest.(check int) "processes" 3 (Graph.process_count g);
  Alcotest.(check int) "messages" 2 (Graph.message_count g);
  Helpers.check_float "deadline" 300. d.Dsl.app.App.deadline;
  let p3 = Option.get (Graph.find_process g "P3") in
  Helpers.check_float "release" 20. (Graph.process g p3).Graph.release;
  Alcotest.(check (option (Helpers.approx ()))) "local deadline" (Some 200.)
    (Graph.process g p3).Graph.local_deadline;
  let p2 = Option.get (Graph.find_process g "P2") in
  Alcotest.(check bool) "P2 frozen" true
    (Ftes_app.Transparency.is_frozen_proc d.Dsl.app.App.transparency p2);
  Alcotest.(check bool) "m2 frozen" true
    (Ftes_app.Transparency.is_frozen_msg d.Dsl.app.App.transparency 1);
  (* Mapping restriction parsed. *)
  Alcotest.(check (option (Helpers.approx ()))) "P3 restricted" None
    (Ftes_arch.Wcet.get d.Dsl.wcet ~pid:p3 ~nid:1)

let test_round_trip_sample () =
  let d = parse sample in
  let d2 = parse (Dsl.to_string d) in
  Alcotest.(check bool) "round trip" true (Dsl.equal d d2)

let test_round_trip_fig5 () =
  let app = App.fig5 () in
  let arch, wcet = Ftes_arch.Examples.fig5 () in
  let d = { Dsl.app; arch; wcet; k = 2 } in
  Alcotest.(check bool) "round trip" true
    (Dsl.equal d (parse (Dsl.to_string d)))

let test_single_bus_round_trip () =
  let text =
    "k 1\nnodes 2\ndeadline 100\nperiod 100\nbus single bandwidth 2 setup 1\n\
     process A alpha 1 mu 1 chi 1\nprocess B alpha 1 mu 1 chi 1\n\
     message m from A to B size 4\nwcet A 10 10\nwcet B 10 10\n"
  in
  let d = parse text in
  Alcotest.(check bool) "single bus" false
    (Ftes_arch.Bus.is_tdma (Ftes_arch.Arch.bus d.Dsl.arch));
  Helpers.check_float "tx includes setup" 3.
    (Ftes_arch.Bus.tx_time (Ftes_arch.Arch.bus d.Dsl.arch) ~size:4.);
  Alcotest.(check bool) "round trip" true
    (Dsl.equal d (parse (Dsl.to_string d)))

let parse_error_line text =
  match Dsl.of_string text with
  | Error (Dsl.Syntax { line; _ }) -> Some line
  | Error (Dsl.Unreadable _) | Ok _ -> None

let test_parse_errors () =
  Alcotest.(check (option int)) "unknown directive on line 2" (Some 2)
    (parse_error_line "nodes 1\nbogus directive\n");
  Alcotest.(check (option int)) "bad number" (Some 1)
    (parse_error_line "k abc\n");
  (* A missing directive points at the document's last line. *)
  Alcotest.(check (option int)) "missing nodes" (Some 2)
    (parse_error_line "process A\nwcet A 1\n");
  Alcotest.(check (option int)) "unknown process in message" (Some 3)
    (parse_error_line
       "nodes 1\nprocess A\nmessage m from A to Z size 1\nwcet A 1\n");
  Alcotest.(check (option int)) "wcet arity" (Some 3)
    (parse_error_line "nodes 2\nprocess A\nwcet A 1\n");
  Alcotest.(check (option int)) "duplicate process" (Some 3)
    (parse_error_line "nodes 1\nprocess A\nprocess A\nwcet A 1\n");
  Alcotest.(check (option int)) "no processes" (Some 1)
    (parse_error_line "nodes 1\n");
  (* Values the model rejects are errors at their own line, not
     exceptions. *)
  let doc extra =
    "nodes 2\nprocess A alpha 1\nprocess B\nmessage m from A to B size 1\n\
     wcet A 1 2\nwcet B 1 2\n" ^ extra
  in
  Alcotest.(check (option int)) "tdma slot 0" (Some 7)
    (parse_error_line (doc "bus tdma slot 0 bandwidth 1\n"));
  Alcotest.(check (option int)) "negative bandwidth" (Some 7)
    (parse_error_line (doc "bus single bandwidth -1\n"));
  Alcotest.(check (option int)) "negative alpha" (Some 7)
    (parse_error_line (doc "process C alpha -2\nwcet C 1 1\n"));
  Alcotest.(check (option int)) "negative k" (Some 7)
    (parse_error_line (doc "k -3\n"));
  Alcotest.(check (option int)) "cycle" (Some 7)
    (parse_error_line (doc "message back from B to A size 1\n"));
  Alcotest.(check (option int)) "deadline past the period" (Some 7)
    (parse_error_line (doc "deadline 20\nperiod 10\n"));
  Alcotest.(check (option int)) "not finite" (Some 7)
    (parse_error_line (doc "deadline nan\n"));
  Alcotest.(check (option int)) "process without wcet row" (Some 7)
    (parse_error_line (doc "process C\n"));
  Alcotest.(check bool) "valid base" true (parse_error_line (doc "") = None)

let test_to_problem () =
  let d = parse sample in
  let p = Dsl.to_problem d in
  Alcotest.(check int) "k" 2 p.Ftes_ftcpg.Problem.k;
  (* Defaults to all-re-execution policies tolerating k. *)
  Array.iter
    (fun policy ->
      Alcotest.(check bool) "tolerates" true
        (Ftes_app.Policy.tolerates policy ~k:2))
    p.Ftes_ftcpg.Problem.policies

let test_defaults () =
  let d =
    parse "nodes 1\nprocess A alpha 1 mu 1 chi 1\nwcet A 5\n"
  in
  Alcotest.(check int) "default k" 1 d.Dsl.k;
  Alcotest.(check bool) "default bus is tdma" true
    (Ftes_arch.Bus.is_tdma (Ftes_arch.Arch.bus d.Dsl.arch))

let dsl_props =
  let arb =
    QCheck.make
      ~print:(fun (seed, n, nodes, fp) ->
        Printf.sprintf "seed=%d n=%d nodes=%d frozen=%b" seed n nodes fp)
      QCheck.Gen.(
        quad (int_bound 10_000) (int_range 1 40) (int_range 1 6) bool)
  in
  [
    Helpers.qtest ~count:100 "random instances round-trip" arb
      (fun (seed, n, nodes, frozen) ->
        let spec =
          {
            Gen.default with
            processes = n;
            nodes;
            seed;
            frozen_proc_prob = (if frozen then 0.4 else 0.);
            frozen_msg_prob = (if frozen then 0.4 else 0.);
          }
        in
        let app, arch, wcet = Gen.instance spec in
        let d = { Dsl.app; arch; wcet; k = 1 + (seed mod 3) } in
        let d2 = parse (Dsl.to_string d) in
        Dsl.equal d d2);
    Helpers.qtest ~count:50 "printing is stable" arb
      (fun (seed, n, nodes, _) ->
        let spec = { Gen.default with processes = n; nodes; seed } in
        let app, arch, wcet = Gen.instance spec in
        let d = { Dsl.app; arch; wcet; k = 1 } in
        let s1 = Dsl.to_string d in
        let s2 = Dsl.to_string (parse s1) in
        s1 = s2);
  ]

(* Token-level mutations of valid documents: replaced, dropped,
   duplicated and swapped tokens and lines, with replacement tokens
   chosen to hit the model's own argument checks (negative, zero and
   non-finite numbers, huge integers, names, keywords). *)
let fuzz_numbers =
  [| "-3"; "-1"; "0"; "-0"; "0.5"; "1"; "7"; "1e308"; "nan"; "inf"; "-inf";
     "99999999999999999999" |]

let fuzz_words =
  [| "X"; "x"; "P1"; "P2"; "m1"; "A"; "from"; "to"; "size"; "frozen";
     "alpha"; "slot"; "bandwidth"; "setup"; "tdma"; "single"; "bus"; "nodes";
     "k"; "wcet"; "process"; "message"; "deadline"; "period"; "release";
     "local-deadline"; "#"; "" |]

let mutate rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let pick a = a.(Ftes_util.Rng.int rng (Array.length a)) in
  let li = Ftes_util.Rng.int rng n in
  let toks = Array.of_list (String.split_on_char ' ' lines.(li)) in
  let nt = Array.length toks in
  let ti = Ftes_util.Rng.int rng nt in
  (match Ftes_util.Rng.int rng 8 with
  | 0 | 6 | 7 ->
      (* A number where the document has one, most often. *)
      let numeric =
        List.filter
          (fun i -> Option.is_some (float_of_string_opt toks.(i)))
          (List.init nt Fun.id)
      in
      let i = if numeric = [] then ti else pick (Array.of_list numeric) in
      toks.(i) <- pick fuzz_numbers
  | 1 -> toks.(ti) <- pick fuzz_words
  | 2 -> toks.(ti) <- ""
  | 3 -> toks.(ti) <- toks.(ti) ^ " " ^ pick fuzz_words
  | 4 ->
      let tj = Ftes_util.Rng.int rng nt in
      let t = toks.(ti) in
      toks.(ti) <- toks.(tj);
      toks.(tj) <- t
  | _ -> toks.(ti) <- lines.(Ftes_util.Rng.int rng n));
  lines.(li) <- String.concat " " (Array.to_list toks);
  String.concat "\n" (Array.to_list lines)

let fuzz_props =
  let docs =
    [| sample;
       "k 1\nnodes 2\ndeadline 100\nperiod 100\n\
        bus single bandwidth 2 setup 1\nprocess A alpha 1 mu 1 chi 1\n\
        process B alpha 1 mu 1 chi 1\nmessage m from A to B size 4\n\
        wcet A 10 10\nwcet B 10 10\n";
       (let app, arch, wcet =
          Gen.instance
            { Gen.default with processes = 6; nodes = 3; seed = 5;
              frozen_proc_prob = 0.3; frozen_msg_prob = 0.3 }
        in
        Dsl.to_string { Dsl.app; arch; wcet; k = 2 }) |]
  in
  [
    Helpers.qtest ~count:1000 "mutated documents parse or fail, never raise"
      (QCheck.make
         ~print:(fun (d, seed, m) ->
           Printf.sprintf "doc=%d seed=%d mutations=%d" d seed m)
         QCheck.Gen.(
           triple (int_bound 2) (int_bound 1_000_000) (int_range 1 4)))
      (fun (d, seed, m) ->
        let rng = Ftes_util.Rng.create seed in
        let text = ref docs.(d) in
        for _ = 1 to m do
          text := mutate rng !text
        done;
        match Dsl.of_string !text with
        | Ok _ | Error (Dsl.Syntax _) -> true
        | Error (Dsl.Unreadable _) -> false
        | exception e ->
            QCheck.Test.fail_reportf "%s raised %s" !text
              (Printexc.to_string e));
  ]

let test_load_save () =
  let d = parse sample in
  let path = Filename.temp_file "ftes_test" ".ftes" in
  Dsl.save path d;
  let d2 = Dsl.load path in
  Sys.remove path;
  (match d2 with
  | Ok d2 -> Alcotest.(check bool) "load/save" true (Dsl.equal d d2)
  | Error _ -> Alcotest.fail "load failed");
  Alcotest.(check bool) "missing file is an error" true
    (match Dsl.load path with Error (Dsl.Unreadable _) -> true | _ -> false)

let () =
  Alcotest.run "dsl"
    [
      ( "parse+print",
        [
          Alcotest.test_case "parse sample" `Quick test_parse_sample;
          Alcotest.test_case "round trip sample" `Quick test_round_trip_sample;
          Alcotest.test_case "round trip fig5" `Quick test_round_trip_fig5;
          Alcotest.test_case "single bus" `Quick test_single_bus_round_trip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "to_problem" `Quick test_to_problem;
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "load/save" `Quick test_load_save;
        ]
        @ dsl_props @ fuzz_props );
    ]
