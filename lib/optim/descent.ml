module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Graph = Ftes_app.Graph
module Wcet = Ftes_arch.Wcet
module Telemetry = Ftes_util.Telemetry
module Events = Ftes_util.Events

let c_rounds = Telemetry.counter "descent.rounds"

let objective ?cache p =
  match cache with
  | Some c -> Evalcache.length ~ft:true c p
  | None -> Ftes_sched.Slack.length ~ft:true p

let policy_sweep ?cache ?(kinds = [ Tabu.Reexec; Tabu.Repl; Tabu.Combined ])
    ?max_rounds ?(width = 6) problem =
  let g = Problem.graph problem in
  let nprocs = Graph.process_count g in
  let max_rounds = match max_rounds with Some r -> r | None -> nprocs in
  let k = problem.Problem.k in
  let wcet = problem.Problem.wcet in
  let ev_on = Events.enabled () in
  let ev_t0 = Events.now () in
  let ev_evals = ref 0 in
  let objective p =
    if ev_on then incr ev_evals;
    objective ?cache p
  in
  let evaluate p =
    match cache with
    | Some c -> Evalcache.evaluate ~ft:true c p
    | None -> Ftes_sched.Slack.evaluate ~ft:true p
  in
  (* The slack term is a max over processes: only moves on the current
     top-penalty processes can improve it, so each round evaluates the
     [width] most critical ones (plus the estimate's root is insensitive
     to a single policy switch elsewhere). *)
  let candidates best =
    let r = evaluate best in
    let critical =
      List.filteri (fun i _ -> i < width)
        (List.map fst (Ftes_sched.Slack.critical_processes r))
    in
    if critical = [] then List.init (min width nprocs) (fun i -> i)
    else critical
  in
  let rec round i best best_len =
    if i >= max_rounds then best
    else begin
      Telemetry.incr c_rounds;
      let chosen = ref None in
      List.iter
        (fun pid ->
          List.iter
            (fun kind ->
              match Tabu.reassign_policy ~k ~wcet best ~pid kind with
              | exception Invalid_argument _ -> ()
              | cand ->
                  let len = objective cand in
                  let improves =
                    len < best_len -. 1e-9
                    && match !chosen with
                       | None -> true
                       | Some (_, l) -> len < l
                  in
                  if improves then chosen := Some (cand, len))
            kinds)
        (candidates best);
      match !chosen with
      | None -> best
      | Some (cand, len) ->
          if ev_on then begin
            Events.emit
              (Events.Incumbent
                 {
                   source = "descent.policy";
                   cost = len;
                   evals = !ev_evals;
                   wall_s = Events.now () -. ev_t0;
                 });
            Events.drain ()
          end;
          round (i + 1) cand len
    end
  in
  Events.with_span ~cat:"optim" "descent.policy_sweep" (fun () ->
      round 0 problem (objective problem))

let remap_sweep ?cache ?max_rounds problem =
  let g = Problem.graph problem in
  let nprocs = Graph.process_count g in
  let max_rounds = match max_rounds with Some r -> r | None -> nprocs in
  let wcet = problem.Problem.wcet in
  let ev_on = Events.enabled () in
  let ev_t0 = Events.now () in
  let ev_evals = ref 0 in
  let objective p =
    if ev_on then incr ev_evals;
    objective ?cache p
  in
  let rec round i best best_len =
    if i >= max_rounds then best
    else begin
      Telemetry.incr c_rounds;
      let chosen = ref None in
      for pid = 0 to nprocs - 1 do
        let copies = Mapping.copy_count best.Problem.mapping ~pid in
        for copy = 0 to copies - 1 do
          let current = Mapping.node_of best.Problem.mapping ~pid ~copy in
          List.iter
            (fun nid ->
              if nid <> current then begin
                let mapping =
                  Mapping.remap best.Problem.mapping ~pid ~copy ~nid
                in
                match
                  Problem.with_policies best best.Problem.policies mapping
                with
                | exception Invalid_argument _ -> ()
                | cand ->
                    let len = objective cand in
                    let improves =
                      len < best_len -. 1e-9
                      && match !chosen with
                         | None -> true
                         | Some (_, l) -> len < l
                    in
                    if improves then chosen := Some (cand, len)
              end)
            (Wcet.allowed_nodes wcet ~pid)
        done
      done;
      match !chosen with
      | None -> best
      | Some (cand, len) ->
          if ev_on then begin
            Events.emit
              (Events.Incumbent
                 {
                   source = "descent.remap";
                   cost = len;
                   evals = !ev_evals;
                   wall_s = Events.now () -. ev_t0;
                 });
            Events.drain ()
          end;
          round (i + 1) cand len
    end
  in
  Events.with_span ~cat:"optim" "descent.remap_sweep" (fun () ->
      round 0 problem (objective problem))
