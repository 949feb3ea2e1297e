module Problem = Ftes_ftcpg.Problem
module Policy = Ftes_app.Policy
module Fttime = Ftes_app.Fttime
module Graph = Ftes_app.Graph
module Telemetry = Ftes_util.Telemetry
module Events = Ftes_util.Events

let c_passes = Telemetry.counter "checkpoint.passes"
let c_accepted = Telemetry.counter "checkpoint.accepted"

let worst_case ~c o ~k ~checkpoints =
  Fttime.worst_case_length ~c o ~checkpoints ~recoveries:k

let local_optimum ?(max_checkpoints = 100) ~c (o : Ftes_app.Overheads.t) ~k =
  if k <= 0 || c <= 0. then 1
  else
    let denom = o.alpha +. o.chi in
    if denom <= 0. then max_checkpoints
    else
      let n_star = sqrt (float_of_int k *. c /. denom) in
      let clamp n = max 1 (min max_checkpoints n) in
      let lo = clamp (int_of_float (floor n_star)) in
      let hi = clamp (int_of_float (ceil n_star)) in
      if
        worst_case ~c o ~k ~checkpoints:lo
        <= worst_case ~c o ~k ~checkpoints:hi
      then lo
      else hi

let update_policies problem f =
  let policies =
    Array.mapi
      (fun pid (p : Policy.t) ->
        let copies = Policy.replica_count p in
        let rec apply p copy =
          if copy >= copies then p
          else
            let n = f pid copy p.Policy.copies.(copy) in
            apply (Policy.with_checkpoints p ~copy ~checkpoints:n) (copy + 1)
        in
        apply p 0)
      problem.Problem.policies
  in
  Problem.with_policies problem policies problem.Problem.mapping

let assign_local ?max_checkpoints problem =
  let g = Problem.graph problem in
  update_policies problem (fun pid copy (plan : Policy.copy_plan) ->
      if plan.Policy.recoveries = 0 then 1
      else
        let c = Problem.copy_wcet problem ~pid ~copy in
        let o = (Graph.process g pid).Graph.overheads in
        local_optimum ?max_checkpoints ~c o ~k:plan.Policy.recoveries)

let global_optimize ?cache ?(max_checkpoints = 100) ?(max_passes = 32) problem =
  Events.with_span ~cat:"optim" "checkpoint.global_optimize" @@ fun () ->
  let g = Problem.graph problem in
  let nprocs = Graph.process_count g in
  let objective p =
    match cache with
    | Some c -> Evalcache.length ~ft:true c p
    | None -> Ftes_sched.Slack.length p
  in
  let best = ref problem in
  let best_len = ref (objective problem) in
  let ev_on = Events.enabled () in
  let ev_t0 = Events.now () in
  let ev_evals = ref 0 in
  let try_move pid copy delta =
    let p = (!best).Problem.policies.(pid) in
    if copy < Policy.replica_count p then begin
      let plan = p.Policy.copies.(copy) in
      let n = plan.Policy.checkpoints + delta in
      if n >= 1 && n <= max_checkpoints && plan.Policy.recoveries > 0 then begin
        let policies = Array.copy (!best).Problem.policies in
        policies.(pid) <- Policy.with_checkpoints p ~copy ~checkpoints:n;
        let cand =
          Problem.with_policies !best policies (!best).Problem.mapping
        in
        let len = objective cand in
        if ev_on then incr ev_evals;
        if len < !best_len -. 1e-9 then begin
          best := cand;
          best_len := len;
          Telemetry.incr c_accepted;
          if ev_on then
            Events.emit
              (Events.Incumbent
                 {
                   source = "checkpoint";
                   cost = len;
                   evals = !ev_evals;
                   wall_s = Events.now () -. ev_t0;
                 });
          true
        end
        else false
      end
      else false
    end
    else false
  in
  let max_copies =
    Array.fold_left
      (fun acc p -> max acc (Policy.replica_count p))
      1 problem.Problem.policies
  in
  let rec pass i =
    if i >= max_passes then !best
    else begin
      Telemetry.incr c_passes;
      let improved = ref false in
      for pid = 0 to nprocs - 1 do
        for copy = 0 to max_copies - 1 do
          if try_move pid copy (-1) then improved := true;
          if try_move pid copy 1 then improved := true
        done
      done;
      if ev_on then Events.drain ();
      if !improved then pass (i + 1) else !best
    end
  in
  pass 0
