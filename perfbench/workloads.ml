(* The three workloads. Each one generates its inputs from the seed,
   exposes its units of work, and checks every unit's output against a
   reference that does not come from the code path being timed.

   A unit's [run] does the timed work and returns a pending check; the
   caller stops the clock before forcing it. With [~traced:true] the
   unit records a span around every call into a library layer and the
   check feeds the layer counters below. *)

module Gen = Ftes_workload.Gen
module Strategy = Ftes_optim.Strategy
module Tabu = Ftes_optim.Tabu
module Evalcache = Ftes_optim.Evalcache
module Portfolio = Ftes_optim.Portfolio
module Incumbent = Ftes_optim.Incumbent
module Experiments = Ftes_core.Experiments
module Problem = Ftes_ftcpg.Problem
module Ftcpg = Ftes_ftcpg.Ftcpg
module Mapping = Ftes_ftcpg.Mapping
module Slack = Ftes_sched.Slack
module Conditional = Ftes_sched.Conditional
module Statictable = Ftes_sched.Statictable
module Table = Ftes_sched.Table
module Sim = Ftes_sim.Sim
module Symbolic = Ftes_sim.Symbolic
module Wcet = Ftes_arch.Wcet
module Policy = Ftes_app.Policy
module Graph = Ftes_app.Graph
module Registry = Ftes_corpus.Registry
module Instance = Ftes_corpus.Instance
module Manifest = Ftes_corpus.Manifest

(* ---- layer counters (traced executions only) ---- *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let samples : (string, float list) Hashtbl.t = Hashtbl.create 32

let add name v =
  if !Span.recording then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let sample name v =
  if !Span.recording then
    Hashtbl.replace samples name
      (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.
let samples_of name = Option.value (Hashtbl.find_opt samples name) ~default:[]

(* ---- units ---- *)

type verdict = {
  ok : bool;
  lengths : float list;  (** Design lengths this unit produced (tu). *)
  why : string;  (** What failed, when not [ok]. *)
}

type pending = { check : unit -> verdict }

type unit_of_work = { label : string; run : traced:bool -> pending }

type env = {
  units : unit_of_work array;
  warmup : unit_of_work;
      (** Run once during set-up. Built from fixed inputs, not from the
          seed, so the set-up time does not depend on which instance a
          seed happens to put first. *)
  setup_failures : string list;  (** Checks made while setting up. *)
  par_probe : (unit -> float * float) option;
      (** Times one fixed validation at [jobs:1] and at [jobs:nproc]
          (seconds), for [par.speedup]. *)
}

type t = {
  name : string;
  jobs : int;
  setup : seed:int -> quick:bool -> env;
}

let nproc = Domain.recommended_domain_count ()
let pass lengths = { ok = true; lengths; why = "" }
let fail why = { ok = false; lengths = []; why }

let rng ~seed salt = Random.State.make [| seed; salt |]

(* [n] sizes spread evenly over [lo, hi], so every seed covers the whole
   size range in the same proportions. *)
let stratified ~n ~lo ~hi i =
  if n <= 1 then (lo + hi) / 2 else lo + ((((hi - lo) * i) + ((n - 1) / 2)) / (n - 1))

(* Position of instance [i] in a second, independent ordering of the
   [n] instances ([mult] is coprime with [n]), as a fraction in (0, 1). *)
let spread ~n ~mult i = (float_of_int (i * mult mod n) +. 0.5) /. float_of_int n

(* Instance [i] of [n]: the seed picks the generator's own seed (DAG
   shape, WCETs, message sizes); size, bus, WCET jitter and burstiness
   are spread over their ranges by [i] alone, so every seed draws the
   same mix and only the graphs differ. *)
let spec_at ~seed ~salt ~n ~lo ~hi i =
  let n = max n 1 in
  {
    Gen.default with
    seed = Random.State.bits (rng ~seed (salt + i));
    processes = stratified ~n ~lo ~hi i;
    bus = (if i / 2 mod 2 = 0 then Gen.Tdma else Gen.Single);
    wcet_jitter = 0.3 +. (0.7 *. spread ~n ~mult:5 i);
    burstiness = 0.5 *. spread ~n ~mult:7 i;
  }

let label_of prefix (s : Gen.spec) ~k =
  Printf.sprintf "%s-p%d-n%d-k%d-s%d" prefix s.Gen.processes s.Gen.nodes k s.Gen.seed

(* Mean wall time of [f] in microseconds, over enough calls to be well
   above the clock's resolution. *)
let time_us ~reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int reps

(* Direct per-call costs of the estimator and of the cache key on a
   final design: [slack.eval_us], [evalcache.signature_us]. *)
let probe_design (p : Problem.t) =
  if !Span.recording then begin
    sample "slack.eval_us" (time_us ~reps:20 (fun () -> Slack.evaluate p));
    sample "evalcache.signature_us"
      (time_us ~reps:50 (fun () -> Evalcache.signature p))
  end

let record_cache c =
  let s = Evalcache.stats c in
  add "optim.evals" (float_of_int s.Evalcache.lookups);
  add "slack.evals" (float_of_int s.Evalcache.misses);
  add "evalcache.hits" (float_of_int s.Evalcache.hits)

(* Independent of the optimizer: every copy sits on a node the WCET
   table allows, every process has the copies its policy asks for, and
   every policy tolerates [k] faults. *)
let design_respects_wcet (p : Problem.t) =
  let n = Graph.process_count p.Problem.app.Ftes_app.App.graph in
  List.for_all
    (fun pid ->
      let nodes = Mapping.copies p.Problem.mapping ~pid in
      let policy = p.Problem.policies.(pid) in
      List.length nodes = Policy.replica_count policy
      && Policy.tolerates policy ~k:p.Problem.k
      && List.for_all (fun nid -> Wcet.allowed p.Problem.wcet ~pid ~nid) nodes)
    (List.init n Fun.id)

let reproduces (p : Problem.t) length =
  Float.abs (Slack.length p -. length) <= 1e-6

let table_digest t = Digest.to_hex (Digest.string (Format.asprintf "%a" Table.pp t))

let inputs_of (app, arch, wcet) ~k = { Strategy.app; arch; wcet; k }

(* Same digest on every execution of a unit: the outputs are meant to
   be deterministic, whatever [jobs] is and whether the run is traced. *)
let stable_digest () =
  let first = ref None in
  fun d ->
    match !first with
    | None ->
        first := Some d;
        true
    | Some d0 -> String.equal d0 d

(* ---- fig7-sweep ---- *)

let fig7_names = [ Strategy.MXR; Strategy.MX; Strategy.MR; Strategy.SFX ]

(* An eighth of the default tabu budget, so that a round covers 72
   instances in a few seconds. *)
let fig7_iterations = 15

let fig7_unit ~label inputs =
  let run ~traced:_ =
    let cache = Evalcache.create () in
    let tabu =
      { Tabu.default_options with Tabu.jobs = 1; iterations = fig7_iterations; cache = Some cache }
    in
    let nft =
      Span.with_ ~layer:"optim" "strategy.nft" (fun () ->
          Strategy.nft_length ~opts:tabu inputs)
    in
    let outcomes =
      List.map
        (fun name ->
          (* As in Experiments.fig7: MR drags k+1 copies of everything
             through each evaluation, so large instances trim it. *)
          let opts =
            if name = Strategy.MR then { tabu with Tabu.iterations = 5; sample = 5 }
            else tabu
          in
          Span.with_ ~layer:"optim"
            ("strategy." ^ Strategy.name_to_string name)
            (fun () -> Strategy.run ~opts ~nft inputs name))
        fig7_names
    in
    let check () =
      record_cache cache;
      List.iter (fun (o : Strategy.outcome) -> probe_design o.Strategy.problem) outcomes;
      match
        List.find_opt
          (fun (o : Strategy.outcome) ->
            not
              (design_respects_wcet o.Strategy.problem
              && reproduces o.Strategy.problem o.Strategy.length))
          outcomes
      with
      | Some o ->
          fail
            (Printf.sprintf "%s: design breaks the WCET mapping or its length %.6f \
                             does not reproduce"
               (Strategy.name_to_string o.Strategy.name) o.Strategy.length)
      | None -> pass (List.map (fun (o : Strategy.outcome) -> o.Strategy.length) outcomes)
    in
    { check }
  in
  { label; run }

let fig7_setup ~seed ~quick =
  let n = if quick then 3 else 72 in
  let unit ~seed i =
    let spec = { (spec_at ~seed ~salt:0 ~n ~lo:30 ~hi:40 i) with Gen.nodes = 3 + (i mod 2) } in
    fig7_unit ~label:(label_of "fig7" spec ~k:3) (inputs_of (Gen.instance spec) ~k:3)
  in
  {
    units = Array.init n (unit ~seed);
    warmup = unit ~seed:0 (n / 2);
    setup_failures = [];
    par_probe = None;
  }

(* ---- verify-tables ---- *)

type expect =
  | Agree_clean  (** Generated: clean, and both backends say so. *)
  | Clean  (** Frozen, past explicit reach: clean. *)
  | Corrupted  (** Must be reported with violations. *)

type vtable = {
  vlabel : string;
  table : Table.t;
  symbolic : bool;  (** [`Auto] picks the symbolic backend. *)
  scenarios : int;  (** Explicit scenario count (0 when symbolic). *)
  expect : expect;
}

(* Sim.mode documents the [`Auto] rule: symbolic when the closed-form
   scenario count exists and exceeds 65,536. *)
let auto_is_symbolic ftcpg =
  match Symbolic.frozen_scenario_count ftcpg with
  | Some c -> c > 65_536.
  | None -> false

let build ftcpg_of =
  let ftcpg = Span.with_ ~layer:"ftcpg" "ftcpg.build" ftcpg_of in
  sample "ftcpg.vertices" (float_of_int (Ftcpg.vertex_count ftcpg));
  ftcpg

let schedule ?(static = false) ftcpg =
  let table =
    Span.with_ ~layer:"conditional"
      (if static then "statictable.schedule" else "conditional.schedule")
      (fun () ->
        if static then Statictable.schedule ftcpg else Conditional.schedule ~jobs:1 ftcpg)
  in
  sample "conditional.entries" (float_of_int (Table.entry_count table));
  table

let vtable ~label ~expect table =
  let ftcpg = table.Table.ftcpg in
  let symbolic = auto_is_symbolic ftcpg in
  let scenarios = if symbolic then 0 else Ftcpg.scenario_count ftcpg in
  if not symbolic then sample "ftcpg.scenarios" (float_of_int scenarios);
  { vlabel = label; table; symbolic; scenarios; expect }

(* The corruption Experiments.diagnostics_demo applies to the Fig. 6
   tables: the latest-starting execution of a vertex with predecessors
   is pulled to time 0. *)
let corrupt (t : Table.t) =
  let victim =
    List.fold_left
      (fun acc (e : Table.entry) ->
        match e.Table.item with
        | Table.Exec vid when (Ftcpg.vertex t.Table.ftcpg vid).Ftcpg.preds <> [] -> (
            match acc with
            | Some (b : Table.entry) when b.Table.start >= e.Table.start -> acc
            | _ -> Some e)
        | _ -> acc)
      None t.Table.entries
  in
  match victim with
  | None -> invalid_arg "corrupt: no dependent execution entry"
  | Some v ->
      let entries =
        List.map
          (fun (e : Table.entry) ->
            if e == v then { e with Table.start = 0.; finish = e.Table.finish -. e.Table.start }
            else e)
          t.Table.entries
      in
      Table.make ~ftcpg:t.Table.ftcpg ~entries ~tracks:t.Table.tracks

let verify_unit ~jobs v =
  let other = ref None in
  let run ~traced:_ =
    let violations =
      Span.with_ ~layer:(if v.symbolic then "sim.symbolic" else "sim.explicit")
        "sim.validate" (fun () -> Sim.validate ~jobs ~mode:`Auto v.table)
    in
    let check () =
      let clean = violations = [] in
      if v.symbolic && !Span.recording then begin
        let _, st = Symbolic.check_stats ~jobs v.table in
        sample "symbolic.cubes" (float_of_int st.Symbolic.cubes);
        sample "symbolic.sat_queries" (float_of_int st.Symbolic.sat_queries);
        sample "symbolic.antichain" (float_of_int st.Symbolic.antichain)
      end
      else add "sim.explicit_scenarios" (float_of_int v.scenarios);
      (* The backend [`Auto] did not pick, once per table. *)
      let other_clean () =
        match !other with
        | Some c -> c
        | None ->
            let mode = if v.symbolic then `Explicit else `Symbolic in
            let c = Sim.validate ~jobs ~mode v.table = [] in
            other := Some c;
            c
      in
      let length = [ Table.schedule_length v.table ] in
      match v.expect with
      | Clean ->
          if clean then pass length else fail (v.vlabel ^ ": violations on a clean table")
      | Agree_clean ->
          if not clean then fail (v.vlabel ^ ": violations on a generated table")
          else if not (other_clean ()) then fail (v.vlabel ^ ": backends disagree")
          else pass length
      | Corrupted ->
          if clean then fail (v.vlabel ^ ": corrupted table reported clean")
          else if (not v.symbolic) && other_clean () then
            fail (v.vlabel ^ ": backends disagree on a corrupted table")
          else pass length
    in
    { check }
  in
  { label = v.vlabel; run }

(* One fixed validation at [jobs:1] and at [jobs:nproc], whatever
   [jobs] the workload itself runs at. *)
let speedup_probe table () =
  match table with
  | None -> (nan, nan)
  | Some table ->
      let time j =
        let t0 = Unix.gettimeofday () in
        ignore (Sim.validate ~jobs:j table);
        Unix.gettimeofday () -. t0
      in
      let pairs = List.init 5 (fun _ -> let a = time 1 in let b = time nproc in (a, b)) in
      (Stat.median (List.map fst pairs), Stat.median (List.map snd pairs))

(* Corpus instances whose tables come straight from the scheduler
   (generated sources; the example sources also pin an optimizer run):
   the standard-tier exhaustive ones and every non-heavy symbolic one. *)
let corpus_instances () =
  List.filter
    (fun (i : Instance.t) ->
      match (i.Instance.source, i.Instance.check) with
      | Instance.Generated _, Instance.Exhaustive -> i.Instance.tier = Instance.Standard
      | Instance.Generated _, Instance.Symbolic -> true
      | _ -> false)
    (Registry.select ~tiers:[ Instance.Smoke; Instance.Standard ] ())

let manifest_path = Filename.concat "corpus" "manifest.json"

(* Corpus tables are built and validated while setting up: each must
   reproduce its manifest digest and its clean verdict. The timed units
   are the seed's tables, so the median sits among tables of one kind. *)
let verify_setup ~jobs ~seed ~quick =
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let manifest =
    match Manifest.load manifest_path with
    | Ok m -> m
    | Error e ->
        failf "cannot read %s: %s" manifest_path e;
        Manifest.empty
  in
  List.iter
    (fun (inst : Instance.t) ->
      let id = inst.Instance.id in
      let ftcpg = build (fun () -> Ftcpg.build (Instance.problem inst)) in
      let table = schedule ~static:(inst.Instance.check = Instance.Symbolic) ftcpg in
      let clean = Sim.validate ~jobs ~mode:`Auto table = [] in
      match Manifest.find manifest id with
      | None -> failf "%s: missing from the manifest" id
      | Some e ->
          if e.Manifest.digest <> table_digest table then
            failf "%s: table digest differs from the manifest" id;
          let pinned_clean =
            String.length e.Manifest.verdict >= 5 && String.sub e.Manifest.verdict 0 5 = "clean"
          in
          if clean <> pinned_clean then
            failf "%s: verdict %s, manifest says %s" id
              (if clean then "clean" else "violations") e.Manifest.verdict)
    (let all = corpus_instances () in
     if quick then List.filteri (fun i _ -> i mod 4 = 0) all else all);
  let n_gen = if quick then 2 else 32 in
  let generated =
    List.init n_gen (fun i ->
        let spec = { (spec_at ~seed ~salt:200 ~n:n_gen ~lo:10 ~hi:10 i) with Gen.nodes = 2 } in
        let table = schedule (build (fun () -> Ftcpg.build (Gen.problem ~k:4 spec))) in
        vtable ~expect:Agree_clean table ~label:(label_of "gen" spec ~k:4))
  in
  let n_frozen = if quick then 1 else 8 in
  let frozen =
    List.init n_frozen (fun i ->
        let k = 6 + (i mod 2) in
        let spec =
          {
            (spec_at ~seed ~salt:300 ~n:n_frozen ~lo:30 ~hi:40 i) with
            Gen.nodes = 2;
            frozen_proc_prob = 1.0;
            frozen_msg_prob = 1.0;
          }
        in
        let ftcpg = build (fun () -> Ftcpg.build (Gen.problem ~k spec)) in
        (match Symbolic.frozen_scenario_count ftcpg with
        | Some c when c > 1e6 -> ()
        | _ -> failf "frozen instance %d: not more than 1e6 scenarios" i);
        vtable ~expect:Clean (schedule ~static:true ftcpg) ~label:(label_of "frozen" spec ~k))
  in
  let fig6 = Experiments.fig6 () in
  let corrupted =
    vtable ~label:"fig6-corrupted" ~expect:Corrupted (corrupt fig6)
    :: List.filter_map
         (function
           | [] -> None
           | v :: _ ->
               Some (vtable ~label:(v.vlabel ^ "-corrupted") ~expect:Corrupted (corrupt v.table)))
         [ generated; frozen ]
  in
  let largest =
    List.fold_left
      (fun acc v ->
        match acc with
        | Some (_, n) when v.scenarios <= n -> acc
        | _ -> Some (v.table, v.scenarios))
      None generated
  in
  {
    units = Array.of_list (List.map (verify_unit ~jobs) (generated @ frozen @ corrupted));
    warmup = verify_unit ~jobs (vtable ~label:"fig6" ~expect:Clean fig6);
    setup_failures = List.rev !failures;
    par_probe = Some (speedup_probe (Option.map fst largest));
  }

(* ---- portfolio-race ---- *)

let engine_name (m : Portfolio.member) =
  match m.Portfolio.engine with
  | Portfolio.Strategy s -> Strategy.name_to_string s
  | Portfolio.Lns _ -> "LNS"

let race_iterations = 20

let race_unit ~jobs ~label inputs =
  let same = stable_digest () in
  let run ~traced:_ =
    let cache = Evalcache.create () in
    let opts =
      {
        Portfolio.jobs;
        deadline_s = None;
        exchange = false;
        cache = Some cache;
        tabu = { Tabu.default_options with Tabu.jobs = 1; iterations = race_iterations };
      }
    in
    let r = Span.with_ ~layer:"optim" "portfolio.run" (fun () -> Portfolio.run ~opts inputs) in
    let check () =
      record_cache cache;
      let w = r.Portfolio.winner in
      probe_design w.Portfolio.problem;
      let walls = List.map (fun (m : Portfolio.member_outcome) -> m.Portfolio.wall_s *. 1000.) r.Portfolio.members in
      add "portfolio.makespan_ms" (r.Portfolio.wall_s *. 1000.);
      add "portfolio.member_sum_ms" (Stat.sum walls);
      (match
         List.sort
           (fun (a : Portfolio.member_outcome) b -> Float.compare b.Portfolio.wall_s a.Portfolio.wall_s)
           r.Portfolio.members
       with
      | slowest :: _ ->
          add "portfolio.tail_member_ms" (slowest.Portfolio.wall_s *. 1000.);
          add ("tail." ^ slowest.Portfolio.member.Portfolio.label) 1.
      | [] -> ());
      add ("portfolio.wins." ^ engine_name w.Portfolio.member) 1.;
      add "incumbent.improvements" (float_of_int (List.length r.Portfolio.curve));
      let best =
        List.fold_left
          (fun acc (m : Portfolio.member_outcome) -> Float.min acc m.Portfolio.length)
          infinity r.Portfolio.members
      in
      let rec strictly_decreasing = function
        | (a : Incumbent.entry) :: (b :: _ as rest) ->
            b.Incumbent.cost < a.Incumbent.cost && strictly_decreasing rest
        | _ -> true
      in
      let digest =
        String.concat ";"
          (w.Portfolio.member.Portfolio.label
          :: List.map (fun (m : Portfolio.member_outcome) -> Printf.sprintf "%.6f" m.Portfolio.length)
               r.Portfolio.members)
      in
      if w.Portfolio.length > best +. 1e-6 then
        fail (Printf.sprintf "%s: winner %.6f longer than a member's %.6f" label w.Portfolio.length best)
      else if not (strictly_decreasing r.Portfolio.curve) then
        fail (label ^ ": incumbent curve not strictly decreasing")
      else if not (design_respects_wcet w.Portfolio.problem && reproduces w.Portfolio.problem w.Portfolio.length)
      then fail (label ^ ": winner breaks the WCET mapping or does not reproduce")
      else if not (same digest) then fail (label ^ ": race outcome differs between executions")
      else pass [ w.Portfolio.length ]
    in
    { check }
  in
  { label; run }

let race_setup ~jobs ~seed ~quick =
  let n = if quick then 2 else 64 in
  let unit ~seed i =
    let spec = { (spec_at ~seed ~salt:400 ~n ~lo:12 ~hi:16 i) with Gen.nodes = 2 + (i mod 2) } in
    race_unit ~jobs ~label:(label_of "race" spec ~k:2) (inputs_of (Gen.instance spec) ~k:2)
  in
  {
    units = Array.init n (unit ~seed);
    warmup = unit ~seed:0 (n / 2);
    setup_failures = [];
    par_probe = None;
  }

let all =
  [
    { name = "fig7-sweep"; jobs = 1; setup = fig7_setup };
    { name = "verify-tables"; jobs = 1; setup = verify_setup ~jobs:1 };
    { name = "portfolio-race"; jobs = nproc; setup = race_setup ~jobs:nproc };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
