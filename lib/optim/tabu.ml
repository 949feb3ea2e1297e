module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Policy = Ftes_app.Policy
module Graph = Ftes_app.Graph
module Wcet = Ftes_arch.Wcet
module Rng = Ftes_util.Rng
module Telemetry = Ftes_util.Telemetry
module Events = Ftes_util.Events

(* Search-trajectory telemetry. Counters are process-wide; the per-run
   story lives in the [tabu.optimize] / [tabu.iter] spans. Recording is
   observation only: nothing below reads a recorded value, so the
   trajectory is bit-identical with telemetry on or off. The same
   discipline covers the live event stream: incumbent-improved events
   carry (cost, evals, wall_s) out but nothing flows back in. *)
let c_iterations = Telemetry.counter "tabu.iterations"
let c_moves_evaluated = Telemetry.counter "tabu.moves_evaluated"
let c_accepted = Telemetry.counter "tabu.accepted"
let c_improved = Telemetry.counter "tabu.improved"
let c_aspirations = Telemetry.counter "tabu.aspirations"
let c_stalls = Telemetry.counter "tabu.stalls"

type policy_kind = Reexec | Repl | Combined

type options = {
  seed : int;
  iterations : int;
  sample : int;
  tenure : int;
  stall_limit : int;
  remap_moves : bool;
  policy_moves : bool;
  policy_kinds : policy_kind list;
  ft_objective : bool;
  jobs : int;
  cache : Evalcache.t option;
  stop : (unit -> bool) option;
  shared : Incumbent.handle option;
  exchange : bool;
}

let default_options =
  {
    seed = 42;
    iterations = 120;
    sample = 16;
    tenure = 8;
    stall_limit = 40;
    remap_moves = true;
    policy_moves = true;
    policy_kinds = [ Reexec; Repl; Combined ];
    ft_objective = true;
    jobs = Ftes_util.Par.default_jobs ();
    cache = None;
    stop = None;
    shared = None;
    exchange = false;
  }

let kind_of_policy p =
  match Policy.kind p with
  | Policy.Checkpointing -> Reexec
  | Policy.Replication -> Repl
  | Policy.Replication_and_checkpointing -> Combined

let make_policy ~k = function
  | Reexec -> Policy.re_execution ~recoveries:k
  | Repl -> Policy.replication ~k
  | Combined ->
      if k >= 2 then
        Policy.combined ~replicas:1
          ~recoveries_per_copy:(List.init 2 (fun i -> if i = 0 then k - 1 else 0))
      else Policy.replication ~k

(* Spread the copies of one process over its fastest allowed nodes,
   keeping the current node of copy 0 (the original). *)
let spread_copies ~wcet ~pid ~copies ~keep_node =
  let ranked =
    List.sort
      (fun (_, c1) (_, c2) -> compare c1 c2)
      (List.filter_map
         (fun nid -> Option.map (fun c -> (nid, c)) (Wcet.get wcet ~pid ~nid))
         (List.init (Wcet.node_count wcet) (fun i -> i)))
  in
  let others =
    List.map fst (List.filter (fun (nid, _) -> nid <> keep_node) ranked)
  in
  let pool = Array.of_list (others @ [ keep_node ]) in
  Array.init copies (fun i ->
      if i = 0 then keep_node else pool.((i - 1) mod Array.length pool))

let reassign_policy ~k ~wcet problem ~pid kind =
  let policy = make_policy ~k kind in
  let policies = Array.copy problem.Problem.policies in
  policies.(pid) <- policy;
  let keep_node = Mapping.node_of problem.Problem.mapping ~pid ~copy:0 in
  let copies = Policy.replica_count policy in
  let row = spread_copies ~wcet ~pid ~copies ~keep_node in
  let assign =
    Array.init (Graph.process_count (Problem.graph problem)) (fun p ->
        if p = pid then row
        else
          Array.of_list (Mapping.copies problem.Problem.mapping ~pid:p))
  in
  Problem.with_policies problem policies (Mapping.of_array assign)

type move =
  | Remap of { pid : int; copy : int; nid : int }
  | Set_policy of { pid : int; kind : policy_kind }

let apply_move ~k ~wcet problem = function
  | Remap { pid; copy; nid } ->
      let mapping = Mapping.remap problem.Problem.mapping ~pid ~copy ~nid in
      Problem.with_policies problem problem.Problem.policies mapping
  | Set_policy { pid; kind } -> reassign_policy ~k ~wcet problem ~pid kind

(* Tabu tenures are keyed by the full move locus — pid × move family ×
   copy — not by pid alone: a remap of one replica copy and a policy
   switch on the same process touch different design decisions and must
   not alias a single tenure slot (keying by pid made them wrongly veto
   each other). The target node of a remap is deliberately not part of
   the locus: once a copy has moved, moving it again anywhere is the
   reversal the tenure exists to forbid. A policy switch rebuilds every
   copy of the process, so its locus carries no copy index. *)
module Tenure = struct
  type locus = Remap_site of { pid : int; copy : int } | Policy_site of int

  type t = (locus, int) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let locus = function
    | Remap { pid; copy; _ } -> Remap_site { pid; copy }
    | Set_policy { pid; _ } -> Policy_site pid

  let mark t ~iter ~tenure mv = Hashtbl.replace t (locus mv) (iter + tenure)

  let active t ~iter mv =
    match Hashtbl.find_opt t (locus mv) with
    | Some until -> iter < until
    | None -> false
end

(* Collapse duplicate draws to their first occurrence, preserving draw
   order. The sequential accept decision breaks ties strictly (first
   strictly smaller length wins), so a duplicate — equal length by
   definition — can never be chosen over its first occurrence: dropping
   it before the evaluation fan-out saves the redundant evaluations
   without changing the trajectory for any [jobs] value. *)
let dedup_moves moves =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun mv ->
      if Hashtbl.mem seen mv then false
      else begin
        Hashtbl.add seen mv ();
        true
      end)
    moves

let random_move rng opts problem =
  let g = Problem.graph problem in
  let wcet = problem.Problem.wcet in
  let nprocs = Graph.process_count g in
  let pid = Rng.int rng nprocs in
  let want_policy =
    opts.policy_moves && ((not opts.remap_moves) || Rng.chance rng 0.4)
  in
  if want_policy then
    let current = kind_of_policy problem.Problem.policies.(pid) in
    let kinds = List.filter (fun kd -> kd <> current) opts.policy_kinds in
    match kinds with
    | [] -> None
    | _ -> Some (Set_policy { pid; kind = Rng.pick_list rng kinds })
  else
    let copies = Mapping.copy_count problem.Problem.mapping ~pid in
    let copy = Rng.int rng copies in
    let current = Mapping.node_of problem.Problem.mapping ~pid ~copy in
    let allowed =
      List.filter (fun nid -> nid <> current) (Wcet.allowed_nodes wcet ~pid)
    in
    match allowed with
    | [] -> None
    | _ -> Some (Remap { pid; copy; nid = Rng.pick_list rng allowed })

let optimize_body opts problem =
  let rng = Rng.create opts.seed in
  let k = problem.Problem.k in
  let wcet = problem.Problem.wcet in
  let objective p =
    match opts.cache with
    | Some c -> Evalcache.length ~ft:opts.ft_objective c p
    | None -> Ftes_sched.Slack.length ~ft:opts.ft_objective p
  in
  let tabu = Tenure.create () in
  let best = ref problem in
  let best_len = ref (objective problem) in
  (* The shared incumbent is read only when exchange is on: a
     publish-only cell keeps the trajectory identical to a solo run
     (the deterministic portfolio mode relies on this). The cell's
     costs are fault-tolerant schedule lengths, so the fault-free
     phases (SFX's mapping phase, the nft baseline) neither publish
     into it nor aspire against it. *)
  let shared = if opts.ft_objective then opts.shared else None in
  let aspire_floor () =
    match shared with
    | Some h when opts.exchange -> Float.min !best_len (Incumbent.handle_best h)
    | Some _ | None -> !best_len
  in
  let publish len =
    match shared with
    | Some h -> ignore (Incumbent.publish_handle h len)
    | None -> ()
  in
  publish !best_len;
  let current = ref problem in
  let stall = ref 0 in
  let ev_on = Events.enabled () in
  let ev_t0 = Events.now () in
  let ev_evals = ref 0 in
  if ev_on then begin
    Events.emit
      (Events.Incumbent
         { source = "tabu"; cost = !best_len; evals = 0; wall_s = 0. });
    Events.drain ()
  end;
  let step iter =
    Telemetry.incr c_iterations;
    (* Sample candidate moves, keep the best admissible one. The
       moves are drawn sequentially (the rng stream is the same for
       every [jobs] value), the expensive part — applying each move
       and evaluating the schedule-length objective — fans out over
       the domain pool, and the fold below replays the sequential
       first-wins tie-breaking in draw order, so the accept decision
       is identical to the [jobs = 1] run. *)
    let drawn = ref [] in
    for _ = 1 to opts.sample do
      match random_move rng opts !current with
      | None -> ()
      | Some mv -> drawn := mv :: !drawn
    done;
    let evaluated =
      Ftes_util.Par.map ~jobs:opts.jobs
        (fun mv ->
          match apply_move ~k ~wcet !current mv with
          | exception Invalid_argument _ -> None
          | cand -> Some (mv, cand, objective cand))
        (dedup_moves (List.rev !drawn))
    in
    if Events.enabled () then
      Telemetry.add c_moves_evaluated (List.length evaluated);
    if ev_on then ev_evals := !ev_evals + List.length evaluated;
    let chosen = ref None in
    List.iter
      (function
        | None -> ()
        | Some (mv, cand, len) ->
            (* Aspiration compares against the global best: a tabu
               move is admissible only when it beats the best length
               seen so far (not merely the current schedule). With
               incumbent exchange on, "global" means across the whole
               portfolio — the shared cell can only tighten the
               threshold, never loosen it. *)
            let admissible =
              (not (Tenure.active tabu ~iter mv))
              || len < aspire_floor () -. 1e-9
            in
            if admissible then
              let better =
                match !chosen with
                | None -> true
                | Some (_, _, l) -> len < l
              in
              if better then chosen := Some (mv, cand, len))
      evaluated;
    match !chosen with
    | None ->
        incr stall;
        Telemetry.incr c_stalls
    | Some (mv, cand, len) ->
        Telemetry.incr c_accepted;
        if Tenure.active tabu ~iter mv then Telemetry.incr c_aspirations;
        current := cand;
        Tenure.mark tabu ~iter ~tenure:opts.tenure mv;
        if len < !best_len -. 1e-9 then begin
          best := cand;
          best_len := len;
          stall := 0;
          publish len;
          Telemetry.incr c_improved;
          Telemetry.set_gauge "tabu.best_len" len;
          if ev_on then
            Events.emit
              (Events.Incumbent
                 {
                   source = "tabu";
                   cost = len;
                   evals = !ev_evals;
                   wall_s = Events.now () -. ev_t0;
                 })
        end
        else incr stall;
        Telemetry.set_gauge "tabu.tenure_entries"
          (float_of_int (Hashtbl.length tabu))
  in
  let stopped () = match opts.stop with Some f -> f () | None -> false in
  (try
     for iter = 1 to opts.iterations do
       if !stall > opts.stall_limit then raise Exit;
       if stopped () then raise Exit;
       (if Events.enabled () then
          Events.with_span ~cat:"optim"
            ~args:[ ("iter", Events.Int iter) ]
            "tabu.iter"
            (fun () -> step iter)
        else step iter);
       if ev_on then Events.drain ()
     done
   with Exit -> ());
  (!best, !best_len)

let optimize opts problem =
  if Events.enabled () then
    Events.with_span ~cat:"optim"
      ~args:
        [
          ("iterations", Events.Int opts.iterations);
          ("sample", Events.Int opts.sample);
          ("jobs", Events.Int opts.jobs);
          ("seed", Events.Int opts.seed);
        ]
      "tabu.optimize"
      (fun () -> optimize_body opts problem)
  else optimize_body opts problem
