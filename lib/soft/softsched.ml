module Graph = Ftes_app.Graph
module App = Ftes_app.App
module Transparency = Ftes_app.Transparency
module Policy = Ftes_app.Policy
module Wcet = Ftes_arch.Wcet
module Arch = Ftes_arch.Arch
module Bus = Ftes_arch.Bus
module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Slack = Ftes_sched.Slack
module Lane = Ftes_sched.Lane

type class_ = Hard | Soft of Utility.t

type placement = {
  pid : int;
  node : int;
  start : float;
  finish : float;
  utility : float;
  guaranteed_utility : float;
}

type result = {
  hard : Slack.result;
  hard_pids : int list;
  soft_placements : placement list;
  dropped : int list;
  utility_no_fault : float;
  utility_guaranteed : float;
  utility_bound : float;
}

(* Utility of a soft process. A [Hard] class here means the caller (or
   an internal ready-set bug) mixed up the soft/hard partition — the
   descriptive error replaces a historical [assert false] on this
   path. *)
let soft_utility ~classes g pid =
  if pid < 0 || pid >= Array.length classes then
    invalid_arg
      (Printf.sprintf "Softsched.soft_utility: pid %d out of range" pid);
  match classes.(pid) with
  | Soft u -> u
  | Hard ->
      invalid_arg
        (Printf.sprintf
           "Softsched.soft_utility: process %s (pid %d) is hard but was \
            selected for soft placement"
           (Graph.process g pid).Graph.pname pid)

(* Build the Problem restricted to the hard processes. *)
let hard_subproblem ~classes (problem : Problem.t) =
  let g = Problem.graph problem in
  let app = problem.Problem.app in
  let is_hard pid = classes.(pid) = Hard in
  let hgraph, pid_map = Graph.restrict g ~keep:is_hard in
  (* Translation for kept messages: same relative order. *)
  let mid_map = Array.make (Graph.message_count g) (-1) in
  let next = ref 0 in
  Array.iter
    (fun (m : Graph.message) ->
      if pid_map.(m.Graph.src) >= 0 && pid_map.(m.Graph.dst) >= 0 then begin
        mid_map.(m.Graph.mid) <- !next;
        incr next
      end)
    (Graph.messages g);
  let nh = Graph.process_count hgraph in
  let nodes = Arch.node_count problem.Problem.arch in
  let wcet_h = Wcet.create ~procs:nh ~nodes in
  let policies_h = Array.make (max nh 1) (Policy.re_execution ~recoveries:0) in
  let mapping_rows = Array.make nh [||] in
  Array.iteri
    (fun old_pid new_pid ->
      if new_pid >= 0 then begin
        for nid = 0 to nodes - 1 do
          match Wcet.get problem.Problem.wcet ~pid:old_pid ~nid with
          | Some c -> Wcet.set wcet_h ~pid:new_pid ~nid c
          | None -> ()
        done;
        policies_h.(new_pid) <- problem.Problem.policies.(old_pid);
        mapping_rows.(new_pid) <-
          Array.of_list (Mapping.copies problem.Problem.mapping ~pid:old_pid)
      end)
    pid_map;
  let transparency_h =
    Transparency.of_list
      (List.filter_map
         (fun obj ->
           match obj with
           | Transparency.Proc pid when pid_map.(pid) >= 0 ->
               Some (Transparency.Proc pid_map.(pid))
           | Transparency.Msg mid when mid_map.(mid) >= 0 ->
               Some (Transparency.Msg mid_map.(mid))
           | Transparency.Proc _ | Transparency.Msg _ -> None)
         (Transparency.frozen_objects app.App.transparency))
  in
  let app_h =
    App.make ~transparency:transparency_h ~graph:hgraph
      ~deadline:app.App.deadline ~period:app.App.period ()
  in
  let problem_h =
    Problem.make ~app:app_h ~arch:problem.Problem.arch ~wcet:wcet_h
      ~k:problem.Problem.k
      ~policies:(Array.sub policies_h 0 nh)
      ~mapping:(Mapping.of_array mapping_rows)
  in
  (problem_h, pid_map)

let schedule ~classes (problem : Problem.t) =
  let g = Problem.graph problem in
  let n = Graph.process_count g in
  if Array.length classes <> n then
    invalid_arg "Softsched.schedule: classes length mismatch";
  Array.iter
    (fun (m : Graph.message) ->
      if classes.(m.Graph.dst) = Hard && classes.(m.Graph.src) <> Hard then
        invalid_arg
          (Printf.sprintf
             "Softsched.schedule: hard process %s depends on soft process %s"
             (Graph.process g m.Graph.dst).Graph.pname
             (Graph.process g m.Graph.src).Graph.pname))
    (Graph.messages g);
  let problem_h, pid_map = hard_subproblem ~classes problem in
  let hard_res = Slack.evaluate problem_h in
  let bus = Arch.bus problem.Problem.arch in
  let nodes = Arch.node_count problem.Problem.arch in
  (* Rebuild the resource state left by the hard schedule. *)
  let node_lanes = Array.init nodes (fun _ -> Lane.create ()) in
  List.iter
    (fun (pl : Slack.placement) ->
      if pl.Slack.finish > pl.Slack.start then
        ignore
          (Lane.reserve node_lanes.(pl.Slack.node) ~start:pl.Slack.start
             ~finish:pl.Slack.finish))
    hard_res.Slack.placements;
  let view = Lane.view bus ~nodes in
  let bus_lanes = Lane.bus_lanes view in
  let bus_lane src = bus_lanes.(Lane.bus_lane view ~src) in
  List.iter
    (fun (mp : Slack.msg_placement) ->
      if mp.Slack.on_bus then begin
        let m =
          Graph.message (Problem.graph problem_h) mp.Slack.mid
        in
        let src =
          Mapping.node_of problem_h.Problem.mapping ~pid:m.Graph.src
            ~copy:mp.Slack.copy
        in
        ignore
          (Lane.reserve (bus_lane src) ~start:mp.Slack.start
             ~finish:mp.Slack.finish)
      end)
    hard_res.Slack.msg_placements;
  (* Fault-free completion of a hard process as seen from [node]. *)
  let hard_arrival old_pid node size =
    let new_pid = pid_map.(old_pid) in
    List.fold_left
      (fun acc (pl : Slack.placement) ->
        if pl.Slack.pid = new_pid then
          let t =
            if pl.Slack.node = node then pl.Slack.finish
            else pl.Slack.finish +. Bus.tx_time bus ~size
          in
          min acc t
        else acc)
      infinity hard_res.Slack.placements
  in
  (* Greedy utility-density list scheduling of the soft processes. *)
  let soft_placed : (int, placement) Hashtbl.t = Hashtbl.create 16 in
  let dropped : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let slack = hard_res.Slack.slack_term in
  let utility_of pid = soft_utility ~classes g pid in
  let density pid =
    Utility.max_value (utility_of pid)
    /. max 1. (Wcet.average_wcet problem.Problem.wcet ~pid)
  in
  let decided pid = Hashtbl.mem soft_placed pid || Hashtbl.mem dropped pid in
  let ready pid =
    (not (decided pid))
    && List.for_all
         (fun (src : int) -> classes.(src) = Hard || decided src)
         (Graph.predecessors g pid)
  in
  let producer_dropped pid =
    List.exists
      (fun src -> classes.(src) <> Hard && Hashtbl.mem dropped src)
      (Graph.predecessors g pid)
  in
  let place_soft pid =
    if producer_dropped pid then Hashtbl.replace dropped pid ()
    else begin
      let proc = Graph.process g pid in
      let u = utility_of pid in
      (* Arrival of all inputs at a candidate node (probing the bus for
         cross-node soft inputs without reserving yet). *)
      let arrival node =
        List.fold_left
          (fun acc mid ->
            let m = Graph.message g mid in
            let t =
              if classes.(m.Graph.src) = Hard then
                hard_arrival m.Graph.src node m.Graph.size
              else
                let pl = Hashtbl.find soft_placed m.Graph.src in
                if pl.node = node || m.Graph.size = 0. then pl.finish
                else
                  snd
                    (Lane.bus_window (bus_lane pl.node) view ~src:pl.node
                       ~size:m.Graph.size
                       ~earliest:pl.finish)
            in
            max acc t)
          proc.Graph.release (Graph.in_messages g pid)
      in
      let candidate node =
        match Wcet.get problem.Problem.wcet ~pid ~nid:node with
        | None -> None
        | Some c ->
            let a = arrival node in
            if a = infinity then None
            else
              let start =
                Lane.earliest_gap node_lanes.(node) ~from_:a ~duration:c
              in
              let finish = start +. c in
              Some (node, start, finish, Utility.value_at u finish)
      in
      let best =
        List.fold_left
          (fun acc node ->
            match (acc, candidate node) with
            | None, c -> c
            | Some _, None -> acc
            | Some (_, _, f0, u0), Some ((_, _, f1, u1) as c) ->
                if u1 > u0 +. 1e-9 || (Float.abs (u1 -. u0) <= 1e-9 && f1 < f0)
                then Some c
                else acc)
          None
          (List.init nodes (fun i -> i))
      in
      match best with
      | Some (node, start, finish, utility) when utility > 0. ->
          (* Commit: CPU window plus the bus windows of soft inputs. *)
          ignore (Lane.reserve node_lanes.(node) ~start ~finish);
          List.iter
            (fun mid ->
              let m = Graph.message g mid in
              if classes.(m.Graph.src) <> Hard && m.Graph.size > 0. then begin
                let pl = Hashtbl.find soft_placed m.Graph.src in
                if pl.node <> node then begin
                  let lane = bus_lane pl.node in
                  let s, f =
                    Lane.bus_window lane view ~src:pl.node ~size:m.Graph.size
                      ~earliest:pl.finish
                  in
                  ignore (Lane.reserve lane ~start:s ~finish:f)
                end
              end)
            (Graph.in_messages g pid);
          Hashtbl.replace soft_placed pid
            {
              pid;
              node;
              start;
              finish;
              utility;
              guaranteed_utility = Utility.value_at u (finish +. slack);
            }
      | Some _ | None -> Hashtbl.replace dropped pid ()
    end
  in
  let soft_pids =
    List.filter (fun pid -> classes.(pid) <> Hard) (Graph.topological_order g)
  in
  let remaining = ref soft_pids in
  while !remaining <> [] do
    let ready_now = List.filter ready !remaining in
    match ready_now with
    | [] ->
        (* Only possible through soft cycles, which the DAG excludes. *)
        List.iter (fun pid -> Hashtbl.replace dropped pid ()) !remaining;
        remaining := []
    | _ ->
        let pick =
          List.fold_left
            (fun acc pid ->
              match acc with
              | None -> Some pid
              | Some best -> if density pid > density best then Some pid else acc)
            None ready_now
        in
        let pid = Option.get pick in
        place_soft pid;
        remaining := List.filter (fun p -> p <> pid) !remaining
  done;
  let soft_placements =
    List.sort
      (fun a b -> compare a.start b.start)
      (Hashtbl.fold (fun _ pl acc -> pl :: acc) soft_placed [])
  in
  let dropped = Hashtbl.fold (fun pid () acc -> pid :: acc) dropped [] in
  {
    hard = hard_res;
    hard_pids =
      List.filter (fun pid -> classes.(pid) = Hard) (Graph.topological_order g);
    soft_placements;
    dropped = List.sort compare dropped;
    utility_no_fault =
      List.fold_left (fun acc pl -> acc +. pl.utility) 0. soft_placements;
    utility_guaranteed =
      List.fold_left
        (fun acc pl -> acc +. pl.guaranteed_utility)
        0. soft_placements;
    utility_bound =
      List.fold_left
        (fun acc pid -> acc +. Utility.max_value (utility_of pid))
        0. soft_pids;
  }

let pp_result g ppf r =
  Format.fprintf ppf
    "@[<v>soft/hard schedule: hard worst-case length %g (slack %g)@,"
    r.hard.Slack.length r.hard.Slack.slack_term;
  List.iter
    (fun pl ->
      Format.fprintf ppf "  %-12s N%d %7.1f-%7.1f  utility %.1f (>= %.1f)@,"
        (Graph.process g pl.pid).Graph.pname (pl.node + 1) pl.start pl.finish
        pl.utility pl.guaranteed_utility)
    r.soft_placements;
  List.iter
    (fun pid ->
      Format.fprintf ppf "  %-12s dropped@," (Graph.process g pid).Graph.pname)
    r.dropped;
  Format.fprintf ppf
    "fault-free utility %.1f / guaranteed %.1f / bound %.1f@]"
    r.utility_no_fault r.utility_guaranteed r.utility_bound
