(* Corpus execution: evaluate instances on the domain pool, gate against
   the manifest, pin a new one. *)

module I = Instance
module Ftcpg = Ftes_ftcpg.Ftcpg
module Problem = Ftes_ftcpg.Problem
module Conditional = Ftes_sched.Conditional
module Statictable = Ftes_sched.Statictable
module Table = Ftes_sched.Table
module Slack = Ftes_sched.Slack
module Sim = Ftes_sim.Sim
module Softsched = Ftes_soft.Softsched
module Rng = Ftes_util.Rng
module Par = Ftes_util.Par
module Telemetry = Ftes_util.Telemetry
module Events = Ftes_util.Events
module Synthesis = Ftes_core.Synthesis

let c_instances = Telemetry.counter "corpus.instances"
let c_failures = Telemetry.counter "corpus.failures"

type error =
  | Limit of Synthesis.limit
  | Violations of { count : int; first : string }
  | Invariant_broken of string
  | Crash of string

let error_to_string = function
  | Limit l -> Synthesis.limit_to_string l
  | Violations { count; first } ->
      Printf.sprintf "%d violation(s), first: %s" count first
  | Invariant_broken what -> what
  | Crash msg -> msg

(* Raised inside [evaluate_exn] where the legacy code called [failwith];
   [evaluate] turns it into a typed failed outcome. *)
exception Instance_error of error

type outcome = {
  instance : I.t;
  length : float;
  digest : string;
  verdict : string;
  ok : bool;
  error : error option;
  detail : string;
  wall_ms : float;
}

let tier_budget_ms = function
  | I.Smoke -> 5_000.
  | I.Standard -> 30_000.
  | I.Heavy -> 120_000.

let digest_of_string s = Digest.to_hex (Digest.string s)

let table_or_fail = function
  | Ok table -> table
  | Error l -> raise (Instance_error (Limit l))

(* Generated instances pin the deterministic default configuration
   (re-execution policies, fastest mapping). Example instances run
   the full synthesis flow — the paper's examples only meet their
   deadlines after policy/mapping optimization, so their digests
   additionally pin the optimizer's trajectory. *)
let table_of inst p =
  let design =
    match inst.I.source with
    | I.Generated _ -> p
    | I.Example _ ->
        (Synthesis.synthesize
           ~options:{ Synthesis.default_options with conditional = false }
           ~app:p.Problem.app ~arch:p.Problem.arch ~wcet:p.Problem.wcet
           ~k:p.Problem.k ())
          .Synthesis.problem
  in
  table_or_fail (Synthesis.tables design)

let table_outcome table ~verdict ~validate =
  let violations = validate table in
  let digest = digest_of_string (Format.asprintf "%a" Table.pp table) in
  let length = Table.schedule_length table in
  let error =
    match violations with
    | [] -> None
    | first :: _ ->
        Some
          (Violations
             {
               count = List.length violations;
               first = Ftes_sim.Violation.to_string first;
             })
  in
  (length, digest, verdict, error)

(* Inside a Par worker nested parallel calls run sequentially anyway;
   jobs:1 makes the intent explicit — parallelism lives across
   instances, and per-instance results stay jobs-independent. *)
let evaluate_exn inst =
  let p = I.problem inst in
  match inst.I.check with
  | I.Exhaustive ->
      table_outcome (table_of inst p) ~verdict:"clean-exhaustive"
        ~validate:(fun table -> Sim.validate ~jobs:1 table)
  | I.Sampled samples ->
      table_outcome (table_of inst p) ~verdict:"clean-sampled"
        ~validate:(fun table ->
          Sim.validate_sampled ~jobs:1
            ~rng:(Rng.create (I.stable_seed inst.I.id))
            ~samples table)
  | I.Symbolic ->
      (* Fully transparent instances compile to a static table (no
         scenario enumeration at all); anything else falls back to the
         conditional scheduler. Either way, validation covers the whole
         scenario family symbolically. *)
      let table =
        table_or_fail
          (Synthesis.within_limits (fun () ->
               let ftcpg = Ftcpg.build p in
               match Statictable.schedule ftcpg with
               | t -> t
               | exception Statictable.Not_transparent _ ->
                   Conditional.schedule ftcpg))
      in
      table_outcome table ~verdict:"clean-symbolic" ~validate:(fun table ->
          Sim.validate ~jobs:1 ~mode:`Symbolic table)
  | I.Estimate ->
      let r = Slack.evaluate p in
      let digest =
        digest_of_string (Format.asprintf "%a" Slack.pp_result r)
      in
      let ok = Float.is_finite r.Slack.length && r.Slack.length > 0. in
      ( r.Slack.length,
        digest,
        "estimate-only",
        if ok then None
        else Some (Invariant_broken "estimator produced a degenerate length")
      )
  | I.Soft { soft_prob } ->
      let g = Problem.graph p in
      let horizon = Slack.length ~ft:false p *. 1.5 in
      let seed =
        match inst.I.source with
        | I.Generated spec -> spec.Ftes_workload.Gen.seed
        | I.Example _ -> I.stable_seed inst.I.id
      in
      let classes =
        Ftes_core.Experiments.mk_soft_classes ~rng:(Rng.create seed) ~graph:g
          ~horizon ~soft_prob
      in
      let r = Softsched.schedule ~classes p in
      let digest =
        digest_of_string (Format.asprintf "%a" (Softsched.pp_result g) r)
      in
      let invariants_hold =
        r.Softsched.utility_guaranteed
        <= r.Softsched.utility_no_fault +. 1e-9
        && r.Softsched.utility_no_fault <= r.Softsched.utility_bound +. 1e-9
      in
      ( r.Softsched.hard.Slack.length,
        digest,
        "soft",
        if invariants_hold then None
        else Some (Invariant_broken "soft utility invariants violated") )
  | I.Portfolio { iterations } ->
      let module Portfolio = Ftes_optim.Portfolio in
      let module Strategy = Ftes_optim.Strategy in
      let module Tabu = Ftes_optim.Tabu in
      (* Deterministic mode (jobs = 1, no deadline, no exchange): the
         member outcomes are a pure function of the instance, so the
         digest pins the whole race — winner and per-member lengths —
         and any quality drift in any engine shows up as a digest
         regression. Wall clocks are deliberately left out. *)
      let tabu =
        {
          Tabu.default_options with
          Tabu.iterations;
          jobs = 1;
          seed = I.stable_seed inst.I.id;
        }
      in
      let r =
        Portfolio.run
          ~opts:
            {
              Portfolio.jobs = 1;
              deadline_s = None;
              exchange = false;
              cache = None;
              tabu;
            }
          {
            Strategy.app = p.Problem.app;
            arch = p.Problem.arch;
            wcet = p.Problem.wcet;
            k = p.Problem.k;
          }
      in
      let digest =
        digest_of_string
          (String.concat ";"
             (Printf.sprintf "winner=%s"
                r.Portfolio.winner.Portfolio.member.Portfolio.label
             :: List.map
                  (fun (o : Portfolio.member_outcome) ->
                    Printf.sprintf "%s=%.6f" o.Portfolio.member.Portfolio.label
                      o.Portfolio.length)
                  r.Portfolio.members))
      in
      let best_single =
        List.fold_left
          (fun acc (o : Portfolio.member_outcome) ->
            Float.min acc o.Portfolio.length)
          infinity r.Portfolio.members
      in
      let rec monotone = function
        | (a : Ftes_optim.Incumbent.entry) :: (b :: _ as rest) ->
            b.Ftes_optim.Incumbent.cost < a.Ftes_optim.Incumbent.cost -. 1e-9
            && monotone rest
        | [ _ ] | [] -> true
      in
      let error =
        if r.Portfolio.winner.Portfolio.length > best_single +. 1e-6 then
          Some
            (Invariant_broken
               (Printf.sprintf
                  "portfolio winner %.6f worse than best single member %.6f"
                  r.Portfolio.winner.Portfolio.length best_single))
        else if not (monotone r.Portfolio.curve) then
          Some (Invariant_broken "incumbent curve is not strictly decreasing")
        else None
      in
      (r.Portfolio.winner.Portfolio.length, digest, "portfolio-quality", error)

let evaluate inst =
  let t0 = Unix.gettimeofday () in
  let length, digest, verdict, error =
    match evaluate_exn inst with
    | result -> result
    | exception Instance_error e -> (0., "", "error", Some e)
    | exception exn -> (0., "", "error", Some (Crash (Printexc.to_string exn)))
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let ok = error = None in
  Telemetry.incr c_instances;
  if not ok then Telemetry.incr c_failures;
  {
    instance = inst;
    length;
    digest;
    verdict;
    ok;
    error;
    detail = (match error with None -> "" | Some e -> error_to_string e);
    wall_ms;
  }

(* Instances run in pool-sized batches: within a batch workers pull
   instances dynamically (their costs vary by orders of magnitude), and
   the [on_outcome] progress callback fires between batches. *)
let run ?jobs ?on_outcome instances =
  let arr = Array.of_list instances in
  let total = Array.length arr in
  let batch_size =
    max 4 (2 * Option.value jobs ~default:(Par.default_jobs ()))
  in
  let done_count = ref 0 in
  let rec go pos acc =
    if pos >= total then List.concat (List.rev acc)
    else begin
      let len = min batch_size (total - pos) in
      let outcomes =
        Array.to_list (Par.map_array ?jobs evaluate (Array.sub arr pos len))
      in
      List.iter
        (fun o ->
          incr done_count;
          if Events.enabled () then
            Events.emit
              (Events.Corpus_outcome
                 {
                   id = o.instance.I.id;
                   ok = o.ok;
                   verdict = o.verdict;
                   wall_ms = o.wall_ms;
                 });
          match on_outcome with
          | Some f -> f ~done_count:!done_count ~total o
          | None -> ())
        outcomes;
      if Events.enabled () then Events.drain ();
      go (pos + len) (outcomes :: acc)
    end
  in
  go 0 []

type failure = { id : string; reason : string }

let verify ?(budget_factor = 1.) ?(complete = false) ~manifest outcomes =
  let failures = ref [] in
  let fail id reason = failures := { id; reason } :: !failures in
  List.iter
    (fun o ->
      let id = o.instance.I.id in
      if not o.ok then fail id ("execution failed: " ^ o.detail)
      else begin
        match Manifest.find manifest id with
        | None -> fail id "missing from manifest (run `ftes corpus pin`)"
        | Some (e : Manifest.entry) ->
            if e.Manifest.digest <> o.digest then
              fail id
                (Printf.sprintf "digest regression: manifest %s, got %s"
                   e.Manifest.digest o.digest);
            if Float.abs (e.Manifest.length -. o.length) > 1e-6 then
              fail id
                (Printf.sprintf "length regression: manifest %.6f, got %.6f"
                   e.Manifest.length o.length);
            if e.Manifest.verdict <> o.verdict then
              fail id
                (Printf.sprintf "verdict changed: manifest %S, got %S"
                   e.Manifest.verdict o.verdict);
            if e.Manifest.kind <> I.check_kind o.instance.I.check then
              fail id
                (Printf.sprintf "check kind changed: manifest %S, got %S"
                   e.Manifest.kind
                   (I.check_kind o.instance.I.check));
            if e.Manifest.tier <> I.tier_to_string o.instance.I.tier then
              fail id
                (Printf.sprintf "tier changed: manifest %S, got %S"
                   e.Manifest.tier
                   (I.tier_to_string o.instance.I.tier));
            let budget = budget_factor *. tier_budget_ms o.instance.I.tier in
            if o.wall_ms > budget then
              fail id
                (Printf.sprintf
                   "budget regression: %.0f ms exceeds the %s ceiling (%.0f \
                    ms)"
                   o.wall_ms
                   (I.tier_to_string o.instance.I.tier)
                   budget)
      end)
    outcomes;
  if complete then begin
    let seen = List.map (fun o -> o.instance.I.id) outcomes in
    List.iter
      (fun id ->
        if not (List.mem id seen) then
          fail id "stale manifest entry: no such instance in the registry")
      (Manifest.ids manifest)
  end;
  List.rev !failures

let pin outcomes =
  List.iter
    (fun o ->
      if not o.ok then
        invalid_arg
          (Printf.sprintf "Corpus.Runner.pin: instance %s failed: %s"
             o.instance.I.id o.detail))
    outcomes;
  {
    Manifest.version = Manifest.schema_version;
    entries =
      List.map
        (fun o ->
          {
            Manifest.id = o.instance.I.id;
            tier = I.tier_to_string o.instance.I.tier;
            kind = I.check_kind o.instance.I.check;
            length = o.length;
            digest = o.digest;
            verdict = o.verdict;
          })
        outcomes;
  }
