(* Parallel strategy portfolio with a shared eval cache, incumbent
   exchange and anytime results. See portfolio.mli. *)

module Problem = Ftes_ftcpg.Problem
module Slack = Ftes_sched.Slack
module Par = Ftes_util.Par
module Events = Ftes_util.Events

type engine =
  | Strategy of Strategy.name
  | Lns of { restarts : int; destroy : int }

type member = {
  label : string;
  engine : engine;
  seed : int;
  tenure : int;
  sample : int;
}

type member_outcome = {
  member : member;
  length : float;
  wall_s : float;
  problem : Problem.t;
}

type options = {
  jobs : int;
  deadline_s : float option;
  exchange : bool;
  cache : Evalcache.t option;
  tabu : Tabu.options;
}

type result = {
  winner : member_outcome;
  nft : float;
  fto : float;
  curve : Incumbent.entry list;
  members : member_outcome list;
  wall_s : float;
  cache_stats : Evalcache.stats;
}

let default_options =
  {
    jobs = Par.default_jobs ();
    deadline_s = None;
    exchange = false;
    cache = None;
    tabu = Tabu.default_options;
  }

let engine_to_string = function
  | Strategy name -> Strategy.name_to_string name
  | Lns { restarts; destroy } -> Printf.sprintf "LNS(r%d,d%d)" restarts destroy

let default_members ?(seed = 42) ?(sample = 16) ?(checkpointing = false) () =
  let m label engine seed tenure sample =
    { label; engine; seed; tenure; sample }
  in
  let half = max 4 (sample / 2) in
  [
    (* strategy x seed x tenure x neighborhood diversity: same engine
       family twice is fine as long as the knobs differ. *)
    m "MXR#0" (Strategy Strategy.MXR) seed 8 sample;
    m "MX#1" (Strategy Strategy.MX) (seed + 1) 12 sample;
    m "SFX#2" (Strategy Strategy.SFX) (seed + 2) 8 half;
    m "MR#3" (Strategy Strategy.MR) (seed + 3) 4 half;
    m "LNS#4" (Lns { restarts = 4; destroy = 3 }) (seed + 4) 8 half;
  ]
  @
  if checkpointing then
    [ m "MC-global#5" (Strategy Strategy.MC_global) (seed + 5) 8 sample ]
  else []

let initial_problem (i : Strategy.inputs) =
  let policies = Problem.default_policies ~app:i.app ~k:i.k in
  let mapping = Problem.fastest_mapping ~app:i.app ~wcet:i.wcet ~policies in
  Problem.make ~app:i.app ~arch:i.arch ~wcet:i.wcet ~k:i.k ~policies ~mapping

let run ?(opts = default_options) ?members (i : Strategy.inputs) =
  Events.with_phase ~cat:"optim"
    ~args:[ ("jobs", Events.Int opts.jobs) ]
    "portfolio"
  @@ fun () ->
  let members =
    match members with
    | Some (_ :: _ as ms) -> ms
    | Some [] | None ->
        default_members ~seed:opts.tabu.Tabu.seed ~sample:opts.tabu.Tabu.sample
          ()
  in
  let cache =
    match opts.cache with Some c -> c | None -> Evalcache.create ()
  in
  let inc = Incumbent.create () in
  let t0 = Unix.gettimeofday () in
  let stop =
    match (opts.deadline_s, opts.tabu.Tabu.stop) with
    | None, base -> base
    | Some d, base ->
        let until = t0 +. d in
        Some
          (fun () ->
            Unix.gettimeofday () >= until
            || match base with Some f -> f () | None -> false)
  in
  (* The fault-free baseline is computed once, before the race, and
     handed to every member — with N members, recomputing it per
     configuration would multiply the most cache-hostile search
     (different objective, so no shared entries) by N. *)
  let nft =
    Strategy.nft_length
      ~opts:
        {
          opts.tabu with
          Tabu.cache = Some cache;
          stop;
          shared = None;
          exchange = false;
        }
      i
  in
  let run_member m =
    let mt0 = Unix.gettimeofday () in
    if Events.enabled () then begin
      Events.emit (Events.Worker_start { member = m.label });
      Events.drain ()
    end;
    let topts =
      {
        opts.tabu with
        Tabu.seed = m.seed;
        tenure = m.tenure;
        sample = m.sample;
        (* Members run inside pool workers where nested parallel calls
           are sequential anyway; jobs:1 keeps the jobs=1 portfolio
           bit-identical to the jobs=N one. *)
        jobs = 1;
        cache = Some cache;
        stop;
        shared = Some (Incumbent.handle inc ~label:m.label);
        exchange = opts.exchange;
      }
    in
    let problem, length =
      match m.engine with
      | Strategy name ->
          let o = Strategy.run ~opts:topts ~nft i name in
          (o.Strategy.problem, o.Strategy.length)
      | Lns { restarts; destroy } ->
          Lns.optimize
            {
              Lns.seed = m.seed;
              restarts;
              destroy;
              repair_iterations = max 10 (opts.tabu.Tabu.iterations / 4);
              sample = m.sample;
              cache = Some cache;
              stop;
              shared = Some (Incumbent.handle inc ~label:m.label);
              exchange = opts.exchange;
            }
            (initial_problem i)
    in
    ignore (Incumbent.publish inc ~member:m.label length);
    let wall_s = Unix.gettimeofday () -. mt0 in
    if Events.enabled () then
      Events.emit
        (Events.Worker_finish { member = m.label; cost = length; wall_s });
    { member = m; length; wall_s; problem }
  in
  (* The caller runs members too, so the race takes [jobs] domains in
     all. LNS members go first: one is the slowest member of nearly
     every race (four policy-descent-plus-tabu repairs), so starting it
     last would leave it running alone at the end. Outcomes go back to
     member order, on which the winner's tie-break depends. *)
  let outcomes =
    let indexed = List.mapi (fun idx m -> (idx, m)) members in
    let lns, strategies =
      List.partition
        (fun (_, m) -> match m.engine with Lns _ -> true | Strategy _ -> false)
        indexed
    in
    Par.map ~jobs:opts.jobs
      (fun (idx, m) -> (idx, run_member m))
      (lns @ strategies)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let winner =
    match outcomes with
    | [] -> invalid_arg "Portfolio.run: no members"
    | first :: rest ->
        (* Strict improvement only: ties resolve to the earliest member
           in list order, independent of completion order. *)
        List.fold_left
          (fun acc o -> if o.length < acc.length -. 1e-9 then o else acc)
          first rest
  in
  {
    winner;
    nft;
    fto = Slack.fto ~ft_length:winner.length ~nft_length:nft;
    curve = Incumbent.curve inc;
    members = outcomes;
    wall_s = Unix.gettimeofday () -. t0;
    cache_stats = Evalcache.stats cache;
  }

let pp_result ppf r =
  Format.fprintf ppf "@[<v>portfolio: winner %s, length %.1f, FTO %.1f%%@,"
    r.winner.member.label r.winner.length r.fto;
  List.iter
    (fun o ->
      Format.fprintf ppf "  %-12s %-10s length %8.1f  (%.2f s)@," o.member.label
        (engine_to_string o.member.engine)
        o.length o.wall_s)
    r.members;
  Format.fprintf ppf "  incumbent curve: %d improvement(s) in %.2f s@]"
    (List.length r.curve) r.wall_s
