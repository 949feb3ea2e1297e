(* Tests for the regression-gated benchmark corpus: manifest round-trip,
   registry determinism/coverage, and a sampled end-to-end oracle run
   against the checked-in manifest. *)

module I = Ftes_corpus.Instance
module Registry = Ftes_corpus.Registry
module Manifest = Ftes_corpus.Manifest
module Runner = Ftes_corpus.Runner

(* dune's (deps ../corpus/manifest.json) places the checked-in manifest
   next to the test's cwd (_build/default/test) under `dune runtest`;
   the second candidate covers a `dune exec` from the repo root. *)
let manifest_path =
  if Sys.file_exists "../corpus/manifest.json" then "../corpus/manifest.json"
  else "corpus/manifest.json"

let load_manifest () =
  match Manifest.load manifest_path with
  | Ok m -> m
  | Error msg -> Alcotest.failf "cannot load %s: %s" manifest_path msg

(* ------------------------------------------------------------------ *)
(* Manifest round-trip                                                 *)
(* ------------------------------------------------------------------ *)

let awkward_manifest =
  {
    Manifest.version = Manifest.schema_version;
    entries =
      [
        {
          Manifest.id = "plain-id";
          tier = "smoke";
          kind = "table-exhaustive";
          length = 265.;
          digest = "9bfedeab55395f11b45be7b0adcf6009";
          verdict = "clean-exhaustive";
        };
        {
          (* Strings the printer must escape and the parser must
             recover: quotes, backslashes, control characters. *)
          Manifest.id = "odd \"quoted\\id\"\twith\ncontrols";
          tier = "heavy";
          kind = "estimate";
          length = 0.000123;
          digest = "";
          verdict = "estimate-only";
        };
      ];
  }

let test_manifest_roundtrip () =
  let s = Manifest.to_string awkward_manifest in
  match Manifest.of_string s with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok m ->
      Alcotest.(check int) "version" awkward_manifest.Manifest.version
        m.Manifest.version;
      Alcotest.(check int) "entry count" 2 (List.length m.Manifest.entries);
      List.iter2
        (fun (a : Manifest.entry) (b : Manifest.entry) ->
          Alcotest.(check string) "id" a.Manifest.id b.Manifest.id;
          Alcotest.(check string) "tier" a.Manifest.tier b.Manifest.tier;
          Alcotest.(check string) "kind" a.Manifest.kind b.Manifest.kind;
          Alcotest.(check string) "digest" a.Manifest.digest b.Manifest.digest;
          Alcotest.(check string) "verdict" a.Manifest.verdict
            b.Manifest.verdict;
          Alcotest.(check bool) "length" true
            (Float.abs (a.Manifest.length -. b.Manifest.length) < 1e-9))
        awkward_manifest.Manifest.entries m.Manifest.entries

let test_manifest_print_stable () =
  (* print -> parse -> print is a fixpoint: the checked-in file diffs
     cleanly after a re-pin. *)
  let s = Manifest.to_string awkward_manifest in
  match Manifest.of_string s with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok m -> Alcotest.(check string) "fixpoint" s (Manifest.to_string m)

let test_manifest_parse_errors () =
  let bad input =
    match Manifest.of_string input with
    | Ok _ -> Alcotest.failf "parser accepted %S" input
    | Error _ -> ()
  in
  bad "";
  bad "[1, 2]";
  bad "{\"entries\": []}";
  (* no version *)
  bad "{\"version\": 1, \"entries\": [{\"id\": 3}]}";
  bad "{\"version\": 1, \"entries\": [ {\"id\": \"x\"} ";
  (* truncated *)
  bad "{\"version\": \"one\", \"entries\": []}"

(* ------------------------------------------------------------------ *)
(* Total inputs: mutated manifest text                                  *)
(* ------------------------------------------------------------------ *)

(* Character-level damage to a JSON text: truncation, deep nesting,
   bad [\u] escapes, non-finite and malformed numbers, stray
   punctuation, deleted and doubled spans. *)
let mutate_json rng text =
  let n = String.length text in
  let at = Ftes_util.Rng.int rng (n + 1) in
  let pick a = a.(Ftes_util.Rng.int rng (Array.length a)) in
  let insert piece = String.sub text 0 at ^ piece ^ String.sub text at (n - at) in
  match Ftes_util.Rng.int rng 8 with
  | 0 -> String.sub text 0 at
  | 1 ->
      let depth = pick [| 10; 511; 512; 513; 5_000; 200_000 |] in
      let opener = pick [| "["; "{\"a\":"; "[{\"b\": [" |] in
      let closed = Ftes_util.Rng.bool rng in
      insert
        (String.concat "" (List.init depth (fun _ -> opener))
        ^ if closed then String.make depth ']' else "")
  | 2 ->
      insert
        (pick
           [| "\"\\u\""; "\\u12"; "\\uZZZZ"; "\\u-001"; "\\u+7ff";
              "\\u_7_f"; "\\uffff"; "\\u"; "\\" |])
  | 3 ->
      insert
        (pick
           [| "1e999"; "-1e999"; "1e-999"; "nan"; "inf"; "-inf"; "NaN";
              "Infinity"; "-"; "1e"; "0x10"; "1_000"; "--1"; "1.2.3"; "+1";
              "4611686018427387904"; "1e308"; "-0" |])
  | 4 -> insert (String.make 1 (pick [| '{'; '}'; '['; ']'; '"'; ':'; ','; '\\' |]))
  | 5 ->
      let len = Ftes_util.Rng.int rng (min 40 (n - at) + 1) in
      String.sub text 0 at ^ String.sub text (at + len) (n - at - len)
  | 6 ->
      let len = Ftes_util.Rng.int rng (min 40 (n - at) + 1) in
      insert (String.sub text at len)
  | _ ->
      (* A number where the document has one. *)
      let digits = ref [] in
      String.iteri
        (fun i c -> if c >= '0' && c <= '9' then digits := i :: !digits)
        text;
      (match !digits with
      | [] -> text
      | ds ->
          let i = List.nth ds (Ftes_util.Rng.int rng (List.length ds)) in
          String.sub text 0 i
          ^ pick [| "1e999"; "nan"; "-inf"; "1e-400"; "9e18"; "." |]
          ^ String.sub text (i + 1) (n - i - 1))

let mutated rng text =
  let t = ref text in
  for _ = 1 to 1 + Ftes_util.Rng.int rng 3 do
    t := mutate_json rng !t
  done;
  !t

let fuzz_arb =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
    QCheck.Gen.(int_bound 1_000_000)

let manifest_fuzz =
  let text =
    lazy
      (let m = load_manifest () in
       Manifest.to_string
         { m with Manifest.entries = List.filteri (fun i _ -> i < 4) m.Manifest.entries })
  in
  Helpers.qtest ~count:1000 "mutated manifests parse or fail, never raise"
    fuzz_arb (fun seed ->
      let text = mutated (Ftes_util.Rng.create seed) (Lazy.force text) in
      match Manifest.of_string text with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%S raised %s" text (Printexc.to_string e))

let test_manifest_checked_in () =
  let m = load_manifest () in
  Alcotest.(check int) "schema version" Manifest.schema_version
    m.Manifest.version;
  Alcotest.(check bool) "at least 150 entries" true
    (List.length m.Manifest.entries >= 150);
  (* The checked-in file is exactly what the printer produces. *)
  let ic = open_in_bin manifest_path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "file is printer output" (Manifest.to_string m) raw

(* ------------------------------------------------------------------ *)
(* Registry determinism and coverage                                   *)
(* ------------------------------------------------------------------ *)

let test_registry_deterministic () =
  Alcotest.(check bool) "two enumerations are structurally equal" true
    (Registry.all () = Registry.all ())

let test_registry_ids_unique () =
  let ids = List.map (fun i -> i.I.id) (Registry.all ()) in
  Alcotest.(check int) "no duplicate ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_size () =
  Alcotest.(check bool) "at least 150 instances" true
    (List.length (Registry.all ()) >= 150)

let axis_values axis =
  List.sort_uniq compare
    (List.filter_map (fun i -> I.axis i axis) (Registry.all ()))

let test_registry_axis_coverage () =
  let check_covers name got want =
    List.iter
      (fun v ->
        if not (List.mem v got) then
          Alcotest.failf "axis %s misses %S (has: %s)" name v
            (String.concat ", " got))
      want
  in
  check_covers "k" (axis_values "k") [ "1"; "2"; "3"; "4"; "5"; "6"; "7" ];
  check_covers "bus" (axis_values "bus") [ "tdma"; "single" ];
  check_covers "shape" (axis_values "shape") [ "uniform"; "deep"; "bursty" ];
  check_covers "wcet" (axis_values "wcet") [ "uniform"; "hetero"; "flat" ];
  check_covers "transparency" (axis_values "transparency")
    [ "none"; "frozen" ];
  check_covers "class" (axis_values "class") [ "hard"; "soft" ];
  check_covers "kind" (axis_values "kind")
    [ "table-exhaustive"; "table-sampled"; "estimate"; "soft" ];
  check_covers "source" (axis_values "source") [ "generated"; "example" ]

let test_registry_matches_manifest_ids () =
  (* Every instance is pinned, and nothing stale is pinned. *)
  let m = load_manifest () in
  let registry = List.sort compare (List.map (fun i -> i.I.id) (Registry.all ())) in
  let pinned = List.sort compare (Manifest.ids m) in
  Alcotest.(check (list string)) "registry ids = manifest ids" registry pinned

let test_registry_problems_build () =
  (* Every non-heavy instance's problem builds (heavy ones build too,
     but their FT-CPG sizes make [problem] the only cheap part worth
     exercising here — it is the same code path). *)
  List.iter
    (fun i -> ignore (I.problem i))
    (Registry.select ~tiers:[ I.Smoke; I.Standard ] ())

let test_select_filters () =
  let smoke = Registry.select ~tiers:[ I.Smoke ] () in
  Alcotest.(check bool) "smoke tier non-empty" true (smoke <> []);
  List.iter
    (fun i ->
      Alcotest.(check bool) "tier respected" true (i.I.tier = I.Smoke))
    smoke;
  let bursty = Registry.select ~filter:"bursty" () in
  Alcotest.(check bool) "filter non-empty" true (bursty <> []);
  List.iter
    (fun i ->
      Alcotest.(check bool) "filter matches an axis or the id" true
        (I.axis i "shape" = Some "bursty"))
    bursty;
  Alcotest.(check bool) "find hit" true
    (Registry.find "ex-fig5-k2" <> None);
  Alcotest.(check bool) "find miss" true (Registry.find "no-such-id" = None)

(* ------------------------------------------------------------------ *)
(* Sampled end-to-end oracle run                                       *)
(* ------------------------------------------------------------------ *)

(* The full corpus runs in CI ([ftes corpus verify]); here a cheap,
   deterministic sample proves the oracle chain end to end: evaluate ->
   digest -> match the checked-in manifest. Smoke instances are sub-
   second each. *)
let oracle_sample () =
  Registry.select ~tiers:[ I.Smoke ] ()

let test_oracle_sample_matches_manifest () =
  let m = load_manifest () in
  let outcomes = Runner.run ~jobs:2 (oracle_sample ()) in
  Alcotest.(check bool) "sample non-trivial" true (List.length outcomes >= 10);
  let failures = Runner.verify ~manifest:m outcomes in
  if failures <> [] then
    Alcotest.failf "oracle regressions: %s"
      (String.concat "; "
         (List.map
            (fun (f : Runner.failure) -> f.Runner.id ^ ": " ^ f.Runner.reason)
            failures))

(* One regression per axis on one instance of the smoke sample: a
   corrupted digest, a manifest length 1.0 below the outcome's, a failed
   execution and a wall time over [budget_factor] times the tier
   ceiling. Each is reported once, naming the instance and the axis. *)
let test_verify_names_offender () =
  let m = load_manifest () in
  let outcomes = Runner.run ~jobs:2 (oracle_sample ()) in
  let victim = List.hd outcomes in
  let id = victim.Runner.instance.I.id in
  let with_entry f =
    {
      m with
      Manifest.entries =
        List.map
          (fun (e : Manifest.entry) -> if e.Manifest.id = id then f e else e)
          m.Manifest.entries;
    }
  in
  let with_outcome f =
    List.map (fun o -> if o == victim then f o else o) outcomes
  in
  let flags ?budget_factor ~prefix manifest outcomes =
    match Runner.verify ?budget_factor ~manifest outcomes with
    | [ f ] ->
        Alcotest.(check string) (prefix ^ ": offender named") id f.Runner.id;
        Alcotest.(check bool)
          (Printf.sprintf "%s: reason %S" prefix f.Runner.reason)
          true
          (String.starts_with ~prefix f.Runner.reason)
    | fs ->
        Alcotest.failf "%s: expected one regression, got %d" prefix
          (List.length fs)
  in
  flags ~prefix:"digest regression"
    (with_entry (fun e ->
         { e with Manifest.digest = "deadbeefdeadbeefdeadbeefdeadbeef" }))
    outcomes;
  flags ~prefix:"length regression"
    (with_entry (fun e ->
         { e with Manifest.length = victim.Runner.length -. 1.0 }))
    outcomes;
  flags ~prefix:"execution failed" m
    (with_outcome (fun o ->
         {
           o with
           Runner.ok = false;
           error = Some (Runner.Crash "injected");
           detail = "injected";
         }));
  let budget_factor = 4. in
  flags ~budget_factor ~prefix:"budget regression" m
    (with_outcome (fun o ->
         {
           o with
           Runner.wall_ms =
             (budget_factor *. Runner.tier_budget_ms o.Runner.instance.I.tier)
             +. 1.;
         }))

let test_evaluate_deterministic () =
  (* Same instance, two evaluations (one inside a pool): identical
     digest, length and verdict. *)
  let inst =
    match Registry.find "ex-fig5-k2" with
    | Some i -> i
    | None -> Alcotest.fail "ex-fig5-k2 missing from registry"
  in
  let a = Runner.evaluate inst in
  let b = List.hd (Runner.run ~jobs:2 [ inst ]) in
  Alcotest.(check string) "digest" a.Runner.digest b.Runner.digest;
  Alcotest.(check bool) "length" true (a.Runner.length = b.Runner.length);
  Alcotest.(check string) "verdict" a.Runner.verdict b.Runner.verdict;
  Alcotest.(check bool) "ok" true (a.Runner.ok && b.Runner.ok)

let test_run_preserves_order () =
  let instances = oracle_sample () in
  let outcomes = Runner.run ~jobs:3 instances in
  Alcotest.(check (list string)) "input order"
    (List.map (fun i -> i.I.id) instances)
    (List.map (fun o -> o.Runner.instance.I.id) outcomes)

let test_pin_refuses_failures () =
  let inst =
    match Registry.find "ex-fig3-k1" with
    | Some i -> i
    | None -> Alcotest.fail "ex-fig3-k1 missing from registry"
  in
  let o = Runner.evaluate inst in
  let broken = { o with Runner.ok = false; detail = "synthetic failure" } in
  Alcotest.(check bool) "raises" true
    (match Runner.pin [ broken ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Deliberately broken instances must land as typed failed outcomes —
   never a panic out of the runner — and verify must list them. *)
let test_evaluate_typed_errors () =
  let broken ~id ~source ~k ~check =
    { I.id; source; k; check; tier = I.Smoke; axes = [] }
  in
  (* Unknown example name: the Invalid_argument is captured, not
     propagated. *)
  let o =
    Runner.evaluate
      (broken ~id:"broken-unknown-example"
         ~source:(I.Example "does-not-exist") ~k:1 ~check:I.Exhaustive)
  in
  Alcotest.(check bool) "unknown example fails" false o.Runner.ok;
  (match o.Runner.error with
  | Some (Runner.Crash msg) ->
      Alcotest.(check bool) "crash names the example" true
        (let needle = "does-not-exist" in
         let n = String.length needle in
         let rec at i =
           i + n <= String.length msg
           && (String.sub msg i n = needle || at (i + 1))
         in
         at 0)
  | other ->
      Alcotest.failf "expected Crash, got %s"
        (match other with
        | None -> "ok"
        | Some e -> Runner.error_to_string e));
  Alcotest.(check string) "detail = rendered error"
    (Runner.error_to_string (Option.get o.Runner.error))
    o.Runner.detail;
  (* FT-CPG expansion overflow: typed, with the cap. *)
  let huge =
    broken ~id:"broken-expansion-overflow"
      ~source:
        (I.Generated
           { Ftes_workload.Gen.default with processes = 1000; nodes = 2 })
      ~k:7 ~check:I.Exhaustive
  in
  let o = Runner.evaluate huge in
  Alcotest.(check bool) "overflow fails" false o.Runner.ok;
  let expect_limit o limit =
    Alcotest.(check (option string)) "typed limit"
      (Some (Runner.error_to_string (Runner.Limit limit)))
      (Option.map Runner.error_to_string o.Runner.error)
  in
  expect_limit o (Ftes_core.Synthesis.Vertices Ftes_ftcpg.Ftcpg.vertex_cap);
  (* The scenario tree's track cap lands as the same typed error. *)
  expect_limit
    (Runner.evaluate
       (broken ~id:"broken-track-overflow"
          ~source:
            (I.Generated
               { Ftes_workload.Gen.default with processes = 8; nodes = 2 })
          ~k:9 ~check:I.Exhaustive))
    (Ftes_core.Synthesis.Tracks Ftes_sched.Conditional.track_cap);
  (* verify reports the failed outcome instead of trusting it. *)
  let failures =
    Runner.verify ~manifest:{ Manifest.version = Manifest.schema_version;
                              entries = [] }
      [ o ]
  in
  Alcotest.(check bool) "verify lists the broken instance" true
    (List.exists
       (fun (f : Runner.failure) -> f.Runner.id = "broken-expansion-overflow")
       failures);
  (* pin refuses it. *)
  Alcotest.(check bool) "pin refuses the broken instance" true
    (match Runner.pin [ o ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The symbolic corpus block: fully transparent instances whose check
   kind is table-symbolic, spanning fault hypotheses beyond the
   explicit arena. *)
let test_registry_symbolic_block () =
  let symbolic =
    List.filter
      (fun i -> i.I.check = I.Symbolic)
      (Registry.all ())
  in
  Alcotest.(check bool) "symbolic instances exist" true (symbolic <> []);
  Alcotest.(check bool) "a k>=6 symbolic instance exists" true
    (List.exists (fun i -> i.I.k >= 6) symbolic);
  List.iter
    (fun i ->
      Alcotest.(check (option string))
        (i.I.id ^ " kind axis") (Some "table-symbolic") (I.axis i "kind");
      Alcotest.(check (option string))
        (i.I.id ^ " transparency axis") (Some "frozen")
        (I.axis i "transparency"))
    symbolic;
  (* The smoke-tier symbolic instance runs clean end to end. *)
  match List.find_opt (fun i -> i.I.tier = I.Smoke) symbolic with
  | None -> Alcotest.fail "no smoke-tier symbolic instance"
  | Some i ->
      let o = Runner.evaluate i in
      Alcotest.(check bool) (i.I.id ^ " ok") true o.Runner.ok;
      Alcotest.(check string) (i.I.id ^ " verdict") "clean-symbolic"
        o.Runner.verdict

let test_stable_seed () =
  Alcotest.(check int) "same id, same seed"
    (I.stable_seed "ex-fig5-k2")
    (I.stable_seed "ex-fig5-k2");
  Alcotest.(check bool) "different ids differ" true
    (I.stable_seed "ex-fig5-k2" <> I.stable_seed "ex-fig3-k1");
  List.iter
    (fun i ->
      Alcotest.(check bool) "non-negative" true (I.stable_seed i.I.id >= 0))
    (Registry.all ())

let () =
  Alcotest.run "corpus"
    [
      ( "manifest",
        [
          Alcotest.test_case "round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "print is a fixpoint" `Quick
            test_manifest_print_stable;
          Alcotest.test_case "parse errors" `Quick test_manifest_parse_errors;
          Alcotest.test_case "checked-in file" `Quick test_manifest_checked_in;
        ] );
      ("total inputs", [ manifest_fuzz ]);
      ( "registry",
        [
          Alcotest.test_case "deterministic" `Quick test_registry_deterministic;
          Alcotest.test_case "unique ids" `Quick test_registry_ids_unique;
          Alcotest.test_case "size" `Quick test_registry_size;
          Alcotest.test_case "axis coverage" `Quick test_registry_axis_coverage;
          Alcotest.test_case "ids match manifest" `Quick
            test_registry_matches_manifest_ids;
          Alcotest.test_case "problems build" `Quick
            test_registry_problems_build;
          Alcotest.test_case "select filters" `Quick test_select_filters;
          Alcotest.test_case "stable seed" `Quick test_stable_seed;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "smoke sample matches manifest" `Slow
            test_oracle_sample_matches_manifest;
          Alcotest.test_case "verify names the offender" `Slow
            test_verify_names_offender;
          Alcotest.test_case "evaluate is deterministic" `Quick
            test_evaluate_deterministic;
          Alcotest.test_case "run preserves order" `Quick
            test_run_preserves_order;
          Alcotest.test_case "pin refuses failures" `Quick
            test_pin_refuses_failures;
          Alcotest.test_case "typed error outcomes" `Quick
            test_evaluate_typed_errors;
          Alcotest.test_case "symbolic block" `Quick
            test_registry_symbolic_block;
        ] );
    ]
