(* The list-based slack estimator, kept as the test oracle of
   [Ftes_sched.Slack.evaluate]. It schedules on the persistent
   [Timeline] and [Busalloc] structures and walks every reservation on
   every placement: quadratic in the number of copies, but simple enough
   to read against the estimator's specification. The equivalence
   property in [test_sched] requires the library's estimator to agree
   with it bit for bit. *)

module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Graph = Ftes_app.Graph
module App = Ftes_app.App
module Policy = Ftes_app.Policy
module Fttime = Ftes_app.Fttime
module Transparency = Ftes_app.Transparency
module Wcet = Ftes_arch.Wcet
module Arch = Ftes_arch.Arch
module Bus = Ftes_arch.Bus
open Ftes_sched.Slack

(* Downstream critical-path priorities over the application graph,
   using average WCETs (mapping-independent, computed once). *)
let priorities g wcet bus =
  let n = Graph.process_count g in
  let prio = Array.make n 0. in
  List.iter
    (fun pid ->
      let down =
        List.fold_left
          (fun acc mid ->
            let m = Graph.message g mid in
            max acc
              (Bus.tx_time bus ~size:m.Graph.size +. prio.(m.Graph.dst)))
          0. (Graph.out_messages g pid)
      in
      prio.(pid) <- Wcet.average_wcet wcet ~pid +. down)
    (List.rev (Graph.topological_order g));
  prio

let evaluate ?(ft = true) (problem : Problem.t) =
  let g = Problem.graph problem in
  let app = problem.Problem.app in
  let transparency = app.App.transparency in
  let k = problem.Problem.k in
  let arch = problem.Problem.arch in
  let bus = Arch.bus arch in
  let mapping = problem.Problem.mapping in
  let nprocs = Graph.process_count g in
  let prio = priorities g problem.Problem.wcet bus in
  let copies pid =
    if ft then Policy.replica_count problem.Problem.policies.(pid) else 1
  in
  (* Per-copy fault-free and worst-case execution lengths. *)
  let lengths pid copy =
    let c = Problem.copy_wcet problem ~pid ~copy in
    if not ft then (c, c)
    else
      let plan = Problem.copy_plan problem ~pid ~copy in
      let o = (Graph.process g pid).Graph.overheads in
      let recoveries = min plan.Policy.recoveries k in
      let e0 = Fttime.no_fault_length ~c o ~checkpoints:plan.Policy.checkpoints in
      let w =
        Fttime.worst_case_length ~c o ~checkpoints:plan.Policy.checkpoints
          ~recoveries
      in
      (e0, w)
  in
  let node_tl = Array.make (Arch.node_count arch) Timeline.empty in
  let busa = ref (Busalloc.create bus ~nodes:(Arch.node_count arch)) in
  let placements = Array.make nprocs [] in
  (* Copy-indexed views, filled once when a process (or its outgoing
     transmissions) is placed: every consumer then reads its producers
     by direct indexing instead of List.find / hashing per copy. *)
  let by_copy : placement array array = Array.make nprocs [||] in
  let msg_by_copy : msg_placement option array array =
    Array.make (Array.length (Graph.messages g)) [||]
  in
  (* msg transmissions: (mid, producer copy) -> msg_placement *)
  let msgs : (int * int, msg_placement) Hashtbl.t = Hashtbl.create 64 in
  let place_on_bus ~src ~size ~earliest =
    let busa', w = Busalloc.place !busa ~src ~size ~earliest in
    busa := busa';
    w
  in
  (* Arrival of message [mid] at a consumer copy running on [cnode] in
     the fault-free root schedule. With active replication every copy
     delivers a valid input when no fault occurs, so the consumer
     proceeds with the earliest one; waiting for a later replica is a
     fault-scenario cost accounted in the slack term. *)
  let arrival_at mid cnode =
    let m = Graph.message g mid in
    let src_pid = m.Graph.src in
    let mps = msg_by_copy.(mid) in
    let n = Array.length mps in
    if n = 0 then 0.
    else begin
      let at copy =
        let mp = Option.get mps.(copy) in
        let src_node = Mapping.node_of mapping ~pid:src_pid ~copy in
        if src_node = cnode then mp.start else mp.finish
      in
      let acc = ref (at 0) in
      for copy = 1 to n - 1 do
        acc := min !acc (at copy)
      done;
      !acc
    end
  in
  (* Worst-case arrival (for frozen consumers): producer worst-case
     completion plus raw transmission time. *)
  let worst_arrival_at mid cnode =
    let m = Graph.message g mid in
    let src_pid = m.Graph.src in
    let pls = by_copy.(src_pid) in
    let acc = ref 0. in
    for copy = 0 to Array.length pls - 1 do
      let p = pls.(copy) in
      let src_node = Mapping.node_of mapping ~pid:src_pid ~copy in
      let tx =
        if src_node = cnode then 0. else Bus.tx_time bus ~size:m.Graph.size
      in
      acc := max !acc (p.worst_finish +. tx)
    done;
    !acc
  in
  let place_process pid =
    let proc = Graph.process g pid in
    let frozen_p = ft && Transparency.is_frozen_proc transparency pid in
    for copy = 0 to copies pid - 1 do
      let node = Mapping.node_of mapping ~pid ~copy in
      let e0, w = lengths pid copy in
      let arrival =
        List.fold_left
          (fun acc mid ->
            let a = arrival_at mid node in
            let a =
              if frozen_p then max a (worst_arrival_at mid node) else a
            in
            max acc a)
          0. (Graph.in_messages g pid)
      in
      let from_ = max arrival proc.Graph.release in
      let start = Timeline.earliest_gap node_tl.(node) ~from_ ~duration:e0 in
      node_tl.(node) <- Timeline.reserve node_tl.(node) ~start ~finish:(start +. e0);
      placements.(pid) <-
        { pid; copy; node; start; finish = start +. e0;
          worst_finish = start +. w }
        :: placements.(pid)
    done;
    (* [placements.(pid)] lists copies in descending order; the
       copy-indexed view inverts that once. *)
    by_copy.(pid) <- Array.of_list (List.rev placements.(pid));
    (* Transmissions of this process's outputs, one per producer copy.
       Bus placement order (descending copy) is part of the pinned
       schedule and must not change. *)
    List.iter
      (fun mid ->
        let m = Graph.message g mid in
        let frozen_m = ft && Transparency.is_frozen_msg transparency mid in
        let dst_nodes =
          List.init (copies m.Graph.dst) (fun c ->
              Mapping.node_of mapping ~pid:m.Graph.dst ~copy:c)
        in
        let mps = Array.make (copies pid) None in
        List.iter
          (fun (pl : placement) ->
            let send_ready = if frozen_m then pl.worst_finish else pl.finish in
            let crosses = List.exists (fun dn -> dn <> pl.node) dst_nodes in
            let mp =
              if crosses && m.Graph.size > 0. then
                let s, f =
                  place_on_bus ~src:pl.node ~size:m.Graph.size
                    ~earliest:send_ready
                in
                { mid; copy = pl.copy; start = s; finish = f; on_bus = true }
              else
                { mid; copy = pl.copy; start = send_ready;
                  finish = send_ready; on_bus = false }
            in
            mps.(pl.copy) <- Some mp;
            Hashtbl.replace msgs (mid, pl.copy) mp)
          placements.(pid);
        msg_by_copy.(mid) <- mps)
      (Graph.out_messages g pid)
  in
  (* Priority list scheduling at process granularity: a process is ready
     once all producers are fully placed. *)
  let indeg = Array.make nprocs 0 in
  Array.iter
    (fun (m : Graph.message) -> indeg.(m.Graph.dst) <- indeg.(m.Graph.dst) + 1)
    (Graph.messages g);
  let cmp a b = compare (-.prio.(a), a) (-.prio.(b), b) in
  let ready = Pqueue.create ~cmp in
  for pid = 0 to nprocs - 1 do
    if indeg.(pid) = 0 then Pqueue.push ready pid
  done;
  let rec drain () =
    match Pqueue.pop ready with
    | None -> ()
    | Some pid ->
        place_process pid;
        List.iter
          (fun mid ->
            let dst = (Graph.message g mid).Graph.dst in
            indeg.(dst) <- indeg.(dst) - 1;
            if indeg.(dst) = 0 then Pqueue.push ready dst)
          (Graph.out_messages g pid);
        drain ()
  in
  drain ();
  let all_placements = List.concat (Array.to_list placements) in
  let root_makespan =
    List.fold_left (fun acc (p : placement) -> max acc p.finish) 0.
      all_placements
  in
  let root_makespan =
    Hashtbl.fold (fun _ mp acc -> max acc mp.finish) msgs root_makespan
  in
  (* Shared recovery slack: at most k faults total, so the worst
     elongation is bounded by the worst single process group — all k
     faults hitting its copies. For one copy the raw slack is its
     recovery cost W - E0; for a replicated process it is the gap
     between the last copy's worst-case completion (faults may
     invalidate every earlier replica) and the earliest completion the
     root schedule relies on.

     A delay at a process only extends the makespan past its downstream
     laxity: the distance between the completion of its successor cone
     (dependency successors plus later work on the same nodes) and the
     makespan. Conditional schedules absorb recoveries into that laxity
     (scenario tracks diverge only where faults actually happen), which
     is what makes policy assignment sensitive to process criticality. *)
  let group_slack pid =
    match placements.(pid) with
    | [] -> 0.
    | first :: rest ->
        let worst =
          List.fold_left
            (fun acc (p : placement) -> max acc p.worst_finish)
            first.worst_finish rest
        in
        let earliest =
          List.fold_left
            (fun acc (p : placement) -> min acc p.finish)
            first.finish rest
        in
        worst -. earliest
  in
  let penalties = Array.make nprocs 0. in
  let slack_term =
    if not ft then 0.
    else begin
      (* Downstream-completion cone per process, over dependency edges
         and same-node schedule order, by relaxation (the conservative
         process-level closure may contain cycles through replicas). *)
      let dc = Array.make nprocs 0. in
      Array.iteri
        (fun pid pls ->
          dc.(pid) <-
            List.fold_left (fun acc (p : placement) -> max acc p.finish) 0. pls)
        placements;
      let consumers =
        Array.init nprocs (fun pid ->
            List.sort_uniq compare
              (List.map
                 (fun mid -> (Graph.message g mid).Graph.dst)
                 (Graph.out_messages g pid)))
      in
      (* Successor in schedule order on each node, at process level. *)
      let node_next =
        let per_node = Hashtbl.create 16 in
        Array.iter
          (List.iter (fun (p : placement) ->
               Hashtbl.replace per_node p.node
                 (p :: (try Hashtbl.find per_node p.node with Not_found -> []))))
          placements;
        let next = Array.make nprocs [] in
        Hashtbl.iter
          (fun _ pls ->
            let sorted =
              List.sort (fun (a : placement) b -> compare a.start b.start) pls
            in
            let rec walk = function
              | a :: (b :: _ as rest) ->
                  if b.pid <> a.pid then next.(a.pid) <- b.pid :: next.(a.pid);
                  walk rest
              | [ _ ] | [] -> ()
            in
            walk sorted)
          per_node;
        next
      in
      let changed = ref true in
      let passes = ref 0 in
      while !changed && !passes < 64 do
        changed := false;
        incr passes;
        for pid = nprocs - 1 downto 0 do
          let d =
            List.fold_left
              (fun acc q -> max acc dc.(q))
              dc.(pid)
              (consumers.(pid) @ node_next.(pid))
          in
          if d > dc.(pid) +. 1e-9 then begin
            dc.(pid) <- d;
            changed := true
          end
        done
      done;
      let makespan =
        Array.fold_left
          (fun acc pls ->
            List.fold_left (fun a (p : placement) -> max a p.finish) acc pls)
          0. placements
      in
      let penalty pid =
        let laxity = max 0. (makespan -. dc.(pid)) in
        max 0. (group_slack pid -. laxity)
      in
      for pid = 0 to nprocs - 1 do
        penalties.(pid) <- penalty pid
      done;
      Array.fold_left max 0. penalties
    end
  in
  {
    root_makespan;
    slack_term;
    length = root_makespan +. slack_term;
    placements = all_placements;
    msg_placements = Hashtbl.fold (fun _ mp acc -> mp :: acc) msgs [];
    penalties;
  }
