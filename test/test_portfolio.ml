(* Tests for the parallel strategy portfolio: deterministic-mode
   jobs-invariance, anytime-curve monotonicity, the compute-nft-once
   contract (pinned by cache lookup counts), the LNS engine, deadline
   mode, the live race events and the Synthesis.portfolio option. *)

module Portfolio = Ftes_optim.Portfolio
module Incumbent = Ftes_optim.Incumbent
module Lns = Ftes_optim.Lns
module Tabu = Ftes_optim.Tabu
module Strategy = Ftes_optim.Strategy
module Evalcache = Ftes_optim.Evalcache
module Problem = Ftes_ftcpg.Problem
module Slack = Ftes_sched.Slack
module Graph = Ftes_app.Graph
module Events = Ftes_util.Events
module Gen = Ftes_workload.Gen

let inputs ?(processes = 10) ?(nodes = 3) ?(seed = 31) ?(k = 2) () =
  let app, arch, wcet =
    Gen.instance { Gen.default with processes; nodes; seed }
  in
  { Strategy.app; arch; wcet; k }

(* jobs = 1 in the base options on purpose: the portfolio forces member
   searches to jobs = 1 anyway, and the manual replay in the nft-once
   test must match the portfolio's evaluation pattern exactly. *)
let quick_tabu =
  { Tabu.default_options with Tabu.iterations = 25; sample = 8; jobs = 1 }

let run_portfolio ?(jobs = 1) ?members ?deadline_s ?(exchange = false) ?cache i
    =
  Portfolio.run
    ~opts:{ Portfolio.jobs; deadline_s; exchange; cache; tabu = quick_tabu }
    ?members i

let check_monotone what curve =
  let rec ok = function
    | (a : Incumbent.entry) :: (b :: _ as rest) ->
        b.Incumbent.cost < a.Incumbent.cost -. 1e-9 && ok rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) (what ^ ": curve strictly decreasing") true (ok curve)

(* ------------------------------------------------------------------ *)
(* Deterministic mode: outcomes invariant across jobs                  *)
(* ------------------------------------------------------------------ *)

let test_jobs_invariance () =
  let i = inputs () in
  let r1 = run_portfolio ~jobs:1 i in
  let r4 = run_portfolio ~jobs:4 i in
  Alcotest.(check string) "same winner"
    r1.Portfolio.winner.Portfolio.member.Portfolio.label
    r4.Portfolio.winner.Portfolio.member.Portfolio.label;
  Helpers.check_float "same winning length" r1.Portfolio.winner.Portfolio.length
    r4.Portfolio.winner.Portfolio.length;
  Helpers.check_float "same nft" r1.Portfolio.nft r4.Portfolio.nft;
  Helpers.check_float "same fto" r1.Portfolio.fto r4.Portfolio.fto;
  (* Every member's final length is invariant, not just the winner's:
     the shared cache is a pure performance layer and the incumbent
     cell is publish-only in deterministic mode. *)
  List.iter2
    (fun (a : Portfolio.member_outcome) (b : Portfolio.member_outcome) ->
      Alcotest.(check string) "member order preserved"
        a.Portfolio.member.Portfolio.label b.Portfolio.member.Portfolio.label;
      Helpers.check_float
        (a.Portfolio.member.Portfolio.label ^ ": same length")
        a.Portfolio.length b.Portfolio.length)
    r1.Portfolio.members r4.Portfolio.members;
  (* The interleaving of publications differs across jobs, but both
     curves must be monotone and converge to the same winning cost. *)
  check_monotone "jobs=1" r1.Portfolio.curve;
  check_monotone "jobs=4" r4.Portfolio.curve;
  let last curve =
    match List.rev curve with
    | (e : Incumbent.entry) :: _ -> e.Incumbent.cost
    | [] -> nan
  in
  Helpers.check_float "jobs=1 curve ends at the winner"
    r1.Portfolio.winner.Portfolio.length (last r1.Portfolio.curve);
  Helpers.check_float "jobs=4 curve ends at the winner"
    r4.Portfolio.winner.Portfolio.length (last r4.Portfolio.curve);
  (* The winner is the best member (match-or-beat by construction). *)
  List.iter
    (fun (o : Portfolio.member_outcome) ->
      Alcotest.(check bool)
        (o.Portfolio.member.Portfolio.label ^ ": winner <= member")
        true
        (r1.Portfolio.winner.Portfolio.length <= o.Portfolio.length +. 1e-9))
    r1.Portfolio.members

let test_repeat_determinism () =
  (* Same options twice: bit-identical result, not merely close. *)
  let i = inputs ~processes:8 ~seed:77 () in
  let a = run_portfolio ~jobs:2 i in
  let b = run_portfolio ~jobs:2 i in
  Alcotest.(check string) "winner" a.Portfolio.winner.Portfolio.member.Portfolio.label
    b.Portfolio.winner.Portfolio.member.Portfolio.label;
  Alcotest.(check bool) "exact length" true
    (a.Portfolio.winner.Portfolio.length
    = b.Portfolio.winner.Portfolio.length)

(* ------------------------------------------------------------------ *)
(* nft computed once and shared by every member                        *)
(* ------------------------------------------------------------------ *)

let test_nft_computed_once () =
  let i = inputs ~processes:8 ~seed:13 () in
  let strategy_members =
    List.filter
      (fun (m : Portfolio.member) ->
        match m.Portfolio.engine with
        | Portfolio.Strategy _ -> true
        | Portfolio.Lns _ -> false)
      (Portfolio.default_members ~seed:quick_tabu.Tabu.seed
         ~sample:quick_tabu.Tabu.sample ())
  in
  (* Manual replay: one nft baseline, then every member with the same
     per-member overrides the portfolio applies. *)
  let c1 = Evalcache.create () in
  let base = { quick_tabu with Tabu.cache = Some c1 } in
  let nft = Strategy.nft_length ~opts:base i in
  List.iter
    (fun (m : Portfolio.member) ->
      let opts =
        {
          base with
          Tabu.seed = m.Portfolio.seed;
          tenure = m.Portfolio.tenure;
          sample = m.Portfolio.sample;
        }
      in
      let name =
        match m.Portfolio.engine with
        | Portfolio.Strategy n -> n
        | Portfolio.Lns _ -> assert false
      in
      ignore (Strategy.run ~opts ~nft i name))
    strategy_members;
  let manual = Evalcache.stats c1 in
  (* The portfolio on a fresh cache must drive the exact same number of
     cache lookups: had any member recomputed the fault-free baseline,
     the extra search would show up here. *)
  let c2 = Evalcache.create () in
  let r = run_portfolio ~jobs:1 ~members:strategy_members ~cache:c2 i in
  let portfolio = Evalcache.stats c2 in
  Alcotest.(check int) "same cache lookups" manual.Evalcache.lookups
    portfolio.Evalcache.lookups;
  Alcotest.(check int) "same cache hits" manual.Evalcache.hits
    portfolio.Evalcache.hits;
  Helpers.check_float "nft matches the manual baseline" nft r.Portfolio.nft

(* ------------------------------------------------------------------ *)
(* The LNS engine                                                     *)
(* ------------------------------------------------------------------ *)

let lns_opts =
  {
    Lns.default_options with
    Lns.seed = 5;
    restarts = 3;
    destroy = 2;
    repair_iterations = 12;
    sample = 8;
  }

(* Rebuild [app] with a local deadline on one process (the graph is
   immutable; ids are dense and re-adding in order preserves them). *)
let with_local_deadline app pid d =
  let module App = Ftes_app.App in
  let g = app.App.graph in
  let b = Graph.Builder.create () in
  Array.iter
    (fun (pr : Graph.process) ->
      ignore
        (Graph.Builder.add_process b ~name:pr.Graph.pname
           ~overheads:pr.Graph.overheads ~release:pr.Graph.release
           ?local_deadline:
             (if pr.Graph.pid = pid then Some d else pr.Graph.local_deadline)))
    (Graph.processes g);
  Array.iter
    (fun (m : Graph.message) ->
      ignore
        (Graph.Builder.add_message b ~name:m.Graph.mname ~src:m.Graph.src
           ~dst:m.Graph.dst ~size:m.Graph.size))
    (Graph.messages g);
  App.make ~transparency:app.App.transparency
    ~graph:(Graph.Builder.build b) ~deadline:app.App.deadline
    ~period:app.App.period ()

let failing_deadline_problem () =
  let p =
    Helpers.random_problem ~frozen:false ~mixed_policies:false ~processes:6
      ~nodes:2 ~k:2 ~seed:17 ()
  in
  (* An unmeetable local deadline on a sink process: no design meets it,
     and the estimator's targeting does not see it. *)
  let sink = List.hd (Graph.sinks (Problem.graph p)) in
  Problem.make
    ~app:(with_local_deadline p.Problem.app sink 1e-3)
    ~arch:p.Problem.arch ~wcet:p.Problem.wcet ~k:p.Problem.k
    ~policies:p.Problem.policies ~mapping:p.Problem.mapping

(* On a random design, and on one whose unmeetable local deadline the
   estimator does not see. *)
let test_lns_improves_or_holds () =
  List.iter
    (fun (label, p) ->
      Alcotest.(check bool) (label ^ ": slack targets non-empty") true
        (Lns.slack_targets p <> []);
      let initial = Slack.length p in
      let best, len = Lns.optimize lns_opts p in
      Alcotest.(check bool) (label ^ ": never worse than the initial design")
        true
        (len <= initial +. 1e-9);
      Helpers.check_float
        (label ^ ": returned length matches the returned design")
        len (Slack.length best);
      (* Deterministic for fixed options. *)
      let best', len' = Lns.optimize lns_opts p in
      Alcotest.(check bool) (label ^ ": repeatable length") true (len = len');
      Alcotest.(check string) (label ^ ": repeatable design")
        (Evalcache.signature best) (Evalcache.signature best'))
    [
      ( "seed 9",
        Helpers.random_problem ~frozen:false ~mixed_policies:false
          ~processes:10 ~nodes:3 ~k:2 ~seed:9 () );
      ("failing local deadline", failing_deadline_problem ());
    ]

(* Pinned results: length (bit for bit) and a digest of the design
   signature. *)
let test_lns_memo_pinned () =
  let pinned label p (len, digest) =
    let best, l = Lns.optimize lns_opts p in
    Alcotest.(check string) (label ^ ": length") len (Printf.sprintf "%h" l);
    Alcotest.(check string) (label ^ ": design") digest
      (Digest.to_hex (Digest.string (Evalcache.signature best)))
  in
  List.iter
    (fun (seed, expected) ->
      pinned (Printf.sprintf "seed %d" seed)
        (Helpers.random_problem ~frozen:false ~mixed_policies:false
           ~processes:8 ~nodes:2 ~k:2 ~seed ())
        expected)
    [
      (3, ("0x1.e163d18662b13p+8", "c128087ee3459673c4d851020f1ea002"));
      (9, ("0x1.965efe6875763p+8", "9d96938fbf9b3b7355df5aff0352ee07"));
      (21, ("0x1.ba90d260c7044p+8", "57877b7c04bd2b7607f1d7c5f55cabe9"));
    ];
  (* The estimator ranks the sink whose local deadline fails last of six
     by recovery penalty, so the search strikes other processes. *)
  pinned "failing local deadline"
    (failing_deadline_problem ())
    ("0x1.a2f72f36d3c65p+8", "41797cf8911dd6c08c9cde8e0695cba3")

(* ------------------------------------------------------------------ *)
(* Anytime mode: deadline and exchange                                 *)
(* ------------------------------------------------------------------ *)

let test_deadline_mode () =
  let i = inputs ~processes:10 ~seed:41 () in
  (* A deadline short enough to cut the race off mid-search: the result
     must still be a well-formed anytime answer. *)
  let r = run_portfolio ~jobs:2 ~deadline_s:0.05 i in
  Alcotest.(check int) "every member reports"
    (List.length (Portfolio.default_members ~seed:quick_tabu.Tabu.seed
                    ~sample:quick_tabu.Tabu.sample ()))
    (List.length r.Portfolio.members);
  List.iter
    (fun (o : Portfolio.member_outcome) ->
      Alcotest.(check bool)
        (o.Portfolio.member.Portfolio.label ^ ": finite length")
        true
        (Float.is_finite o.Portfolio.length && o.Portfolio.length > 0.))
    r.Portfolio.members;
  check_monotone "deadline curve" r.Portfolio.curve;
  Alcotest.(check bool) "winner tagged" true
    (r.Portfolio.winner.Portfolio.member.Portfolio.label <> "")

let test_exchange_mode () =
  (* Incumbent exchange changes the aspiration threshold, never the
     well-formedness: monotone curve, winner still the best member. *)
  let i = inputs ~processes:8 ~seed:59 () in
  let r = run_portfolio ~jobs:2 ~exchange:true i in
  check_monotone "exchange curve" r.Portfolio.curve;
  List.iter
    (fun (o : Portfolio.member_outcome) ->
      Alcotest.(check bool) "winner <= member" true
        (r.Portfolio.winner.Portfolio.length <= o.Portfolio.length +. 1e-9))
    r.Portfolio.members

(* ------------------------------------------------------------------ *)
(* The live race events                                                *)
(* ------------------------------------------------------------------ *)

let test_race_events () =
  let i = inputs ~processes:8 ~seed:23 () in
  let starts = ref [] and finishes = ref [] and incumbents = ref 0 in
  let capture (e : Events.event) =
    match e.Events.payload with
    | Events.Worker_start { member } -> starts := member :: !starts
    | Events.Worker_finish { member; cost; wall_s } ->
        Alcotest.(check bool) (member ^ ": finite cost") true
          (Float.is_finite cost && wall_s >= 0.);
        finishes := member :: !finishes
    | Events.Incumbent { source; _ } ->
        if String.length source >= 10 && String.sub source 0 10 = "portfolio:"
        then incr incumbents
    | _ -> ()
  in
  Events.enable ();
  let sink = Events.add_sink capture in
  let r = run_portfolio ~jobs:2 i in
  Events.drain ();
  Events.remove_sink sink;
  Events.disable ();
  let n = List.length r.Portfolio.members in
  Alcotest.(check int) "one start per member" n (List.length !starts);
  Alcotest.(check int) "one finish per member" n (List.length !finishes);
  List.iter
    (fun (o : Portfolio.member_outcome) ->
      let l = o.Portfolio.member.Portfolio.label in
      Alcotest.(check bool) (l ^ " started") true (List.mem l !starts);
      Alcotest.(check bool) (l ^ " finished") true (List.mem l !finishes))
    r.Portfolio.members;
  Alcotest.(check bool) "portfolio-tagged incumbent events seen" true
    (!incumbents > 0)

(* The caller runs members itself, so nothing pumps the stream on its
   behalf: live delivery rests on the drains inside the members it runs
   and on [Par]'s wait loop. Records of the other domain must reach the
   sink while a member is still running, not only at the drain that
   closes the race. *)
let test_live_delivery () =
  let cores = Domain.recommended_domain_count () in
  if cores < 2 then begin
    Printf.printf "%d core: live delivery needs a second domain; skipped\n%!"
      cores;
    Alcotest.skip ()
  end;
  let i = inputs ~processes:10 ~seed:23 () in
  let caller = (Domain.self () :> int) in
  let foreign = ref [] and last_finish = ref neg_infinity in
  let capture (e : Events.event) =
    if e.Events.dom <> caller then foreign := Events.now () :: !foreign;
    match e.Events.payload with
    | Events.Worker_finish _ -> last_finish := Float.max !last_finish e.Events.t
    | _ -> ()
  in
  Events.enable ();
  let sink = Events.add_sink capture in
  ignore (run_portfolio ~jobs:2 i);
  let before_return = !foreign in
  Events.drain ();
  let dropped = Events.dropped () in
  Events.remove_sink sink;
  Events.disable ();
  Alcotest.(check bool) "a record of another domain reached the sink before \
                         the race returned" true (before_return <> []);
  Alcotest.(check bool) "one arrived while a member was still running" true
    (List.exists (fun d -> d < !last_finish) before_return);
  Alcotest.(check int) "no record dropped" 0 dropped

(* ------------------------------------------------------------------ *)
(* Synthesis integration                                               *)
(* ------------------------------------------------------------------ *)

let test_synthesis_portfolio_option () =
  let module Synthesis = Ftes_core.Synthesis in
  let i = inputs ~processes:8 ~seed:3 () in
  let options =
    {
      Synthesis.default_options with
      Synthesis.tabu = quick_tabu;
      conditional = false;
      portfolio =
        Some { Portfolio.default_options with Portfolio.jobs = 2 };
    }
  in
  let s =
    Synthesis.synthesize ~options ~app:i.Strategy.app ~arch:i.Strategy.arch
      ~wcet:i.Strategy.wcet ~k:i.Strategy.k ()
  in
  Alcotest.(check bool) "estimate positive" true
    (s.Synthesis.estimate.Slack.length > 0.);
  (* The portfolio always computes the fault-free baseline, so the FTO
     is reported even without compute_fto. *)
  Alcotest.(check bool) "fto reported" true (s.Synthesis.fto <> None);
  (* The winning design is reproducible: a direct portfolio run with
     the same base options lands on the same estimated length. *)
  let direct = run_portfolio ~jobs:1 i in
  Helpers.check_float "matches a direct portfolio run"
    direct.Portfolio.winner.Portfolio.length
    s.Synthesis.estimate.Slack.length

let () =
  Alcotest.run "portfolio"
    [
      ( "deterministic mode",
        [
          Alcotest.test_case "jobs {1,4} invariance + monotone curve" `Slow
            test_jobs_invariance;
          Alcotest.test_case "repeat determinism" `Slow
            test_repeat_determinism;
          Alcotest.test_case "nft computed once (cache lookup pin)" `Slow
            test_nft_computed_once;
        ] );
      ( "lns engine",
        [
          Alcotest.test_case "improves or holds, repeatable" `Slow
            test_lns_improves_or_holds;
          Alcotest.test_case "memoized search matches pinned results" `Slow
            test_lns_memo_pinned;
        ] );
      ( "anytime mode",
        [
          Alcotest.test_case "deadline cut-off" `Quick test_deadline_mode;
          Alcotest.test_case "incumbent exchange" `Slow test_exchange_mode;
        ] );
      ( "integration",
        [
          Alcotest.test_case "race events" `Slow test_race_events;
          Alcotest.test_case "live delivery at jobs=2" `Slow
            test_live_delivery;
          Alcotest.test_case "Synthesis portfolio option" `Slow
            test_synthesis_portfolio_option;
        ] );
    ];
  Ftes_util.Par.shutdown ()
