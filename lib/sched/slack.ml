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

type placement = {
  pid : int;
  copy : int;
  node : int;
  start : float;
  finish : float;
  worst_finish : float;
}

type msg_placement = {
  mid : int;
  copy : int;
  start : float;
  finish : float;
  on_bus : bool;
}

type result = {
  root_makespan : float;
  slack_term : float;
  length : float;
  placements : placement list;
  msg_placements : msg_placement list;
  penalties : float array;
}

(* Stdlib [max]/[min] at type float: the same comparisons (so the same
   result bit for bit, ties and signed zeros included), without the
   polymorphic compare call. *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

(* Downstream critical-path priorities over the application graph,
   using average WCETs (mapping-independent). *)
let compute_priorities g wcet bus =
  let n = Graph.process_count g in
  let prio = Array.make n 0. in
  List.iter
    (fun pid ->
      let down =
        List.fold_left
          (fun acc mid ->
            let m = Graph.message g mid in
            fmax acc
              (Bus.tx_time bus ~size:m.Graph.size +. prio.(m.Graph.dst)))
          0. (Graph.out_messages g pid)
      in
      prio.(pid) <- Wcet.average_wcet wcet ~pid +. down)
    (List.rev (Graph.topological_order g));
  prio

(* A search evaluates thousands of designs of one universe (graph, WCET
   table, bus) in a row, and the priorities depend on nothing else. Each
   domain keeps the last universe's array, keyed by physical identity;
   the array is never written after it is computed. *)
type prio_memo = {
  graph : Graph.t;
  wcet : Wcet.t;
  bus : Bus.t;
  prio : float array;
}

let prio_memo : prio_memo option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let priorities g wcet bus =
  match Domain.DLS.get prio_memo with
  | Some m when m.graph == g && m.wcet == wcet && m.bus == bus -> m.prio
  | _ ->
      let prio = compute_priorities g wcet bus in
      Domain.DLS.set prio_memo (Some { graph = g; wcet; bus; prio });
      prio

let unplaced_msg =
  { mid = -1; copy = -1; start = 0.; finish = 0.; on_bus = false }

let evaluate ?(ft = true) (problem : Problem.t) =
  let g = Problem.graph problem in
  let app = problem.Problem.app in
  let transparency = app.App.transparency in
  let k = problem.Problem.k in
  let arch = problem.Problem.arch in
  let bus = Arch.bus arch in
  let mapping = problem.Problem.mapping in
  let nprocs = Graph.process_count g in
  let nmsgs = Graph.message_count g in
  let prio = priorities g problem.Problem.wcet bus in
  let view = Lane.view bus ~nodes:(Arch.node_count arch) in
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
  let node_lane =
    Array.init (Arch.node_count arch) (fun _ -> Lane.create ())
  in
  let bus_lane = Lane.bus_lanes view in
  (* Copy-indexed placements of every placed process, and of the
     transmissions of every placed producer: consumers read their
     producers by direct indexing. *)
  let by_copy : placement array array = Array.make nprocs [||] in
  let msg_by_copy : msg_placement array array = Array.make nmsgs [||] in
  (* Arrival of message [mid] at a consumer copy running on [cnode] in
     the fault-free root schedule. With active replication every copy
     delivers a valid input when no fault occurs, so the consumer
     proceeds with the earliest one; waiting for a later replica is a
     fault-scenario cost accounted in the slack term. *)
  let arrival_at mid cnode =
    let src_pid = (Graph.message g mid).Graph.src in
    let mps = msg_by_copy.(mid) in
    let at copy =
      let mp = mps.(copy) in
      if Mapping.node_of mapping ~pid:src_pid ~copy = cnode then mp.start
      else mp.finish
    in
    let n = Array.length mps in
    if n = 0 then 0.
    else begin
      let acc = ref (at 0) in
      for copy = 1 to n - 1 do
        acc := fmin !acc (at copy)
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
      acc := fmax !acc (p.worst_finish +. tx)
    done;
    !acc
  in
  let place_process pid =
    let proc = Graph.process g pid in
    let frozen_p = ft && Transparency.is_frozen_proc transparency pid in
    let ncopies = copies pid in
    (* [Array.init] fills in ascending copy order: each copy sees the
       node lanes as the previous copies left them. *)
    let pls =
      Array.init ncopies (fun copy ->
          let node = Mapping.node_of mapping ~pid ~copy in
          let e0, w = lengths pid copy in
          let arrival =
            List.fold_left
              (fun acc mid ->
                let a = arrival_at mid node in
                let a =
                  if frozen_p then fmax a (worst_arrival_at mid node) else a
                in
                fmax acc a)
              0. (Graph.in_messages g pid)
          in
          let from_ = fmax arrival proc.Graph.release in
          let start = Lane.earliest_gap node_lane.(node) ~from_ ~duration:e0 in
          ignore (Lane.reserve node_lane.(node) ~start ~finish:(start +. e0));
          { pid; copy; node; start; finish = start +. e0;
            worst_finish = start +. w })
    in
    by_copy.(pid) <- pls;
    (* Transmissions of this process's outputs, one per producer copy.
       Bus placement order (descending copy) is part of the pinned
       schedule and must not change. *)
    List.iter
      (fun mid ->
        let m = Graph.message g mid in
        let frozen_m = ft && Transparency.is_frozen_msg transparency mid in
        let dst_copies = copies m.Graph.dst in
        let rec crosses node c =
          c < dst_copies
          && (Mapping.node_of mapping ~pid:m.Graph.dst ~copy:c <> node
             || crosses node (c + 1))
        in
        let tx =
          if m.Graph.size > 0. then Bus.tx_time bus ~size:m.Graph.size else 0.
        in
        let mps = Array.make ncopies unplaced_msg in
        for copy = ncopies - 1 downto 0 do
          let pl = pls.(copy) in
          let send_ready = if frozen_m then pl.worst_finish else pl.finish in
          mps.(copy) <-
            (if m.Graph.size > 0. && crosses pl.node 0 then begin
               let lane = bus_lane.(Lane.bus_lane view ~src:pl.node) in
               let s =
                 Lane.find_window lane view ~src:pl.node ~tx
                   ~earliest:send_ready
               in
               let f = Lane.window_finish view ~tx s in
               ignore (Lane.reserve lane ~start:s ~finish:f);
               { mid; copy; start = s; finish = f; on_bus = true }
             end
             else
               { mid; copy; start = send_ready; finish = send_ready;
                 on_bus = false })
        done;
        msg_by_copy.(mid) <- mps)
      (Graph.out_messages g pid)
  in
  (* Priority list scheduling at process granularity: a process is ready
     once all producers are fully placed. Highest priority first, ties
     to the lower pid. *)
  let indeg = Array.make nprocs 0 in
  for mid = 0 to nmsgs - 1 do
    let dst = (Graph.message g mid).Graph.dst in
    indeg.(dst) <- indeg.(dst) + 1
  done;
  let cmp a b =
    match Float.compare (-.prio.(a)) (-.prio.(b)) with
    | 0 -> Int.compare a b
    | c -> c
  in
  let ready = Ftes_util.Pqueue.create ~cmp in
  for pid = 0 to nprocs - 1 do
    if indeg.(pid) = 0 then Ftes_util.Pqueue.push ready pid
  done;
  let rec drain () =
    match Ftes_util.Pqueue.pop ready with
    | None -> ()
    | Some pid ->
        place_process pid;
        List.iter
          (fun mid ->
            let dst = (Graph.message g mid).Graph.dst in
            indeg.(dst) <- indeg.(dst) - 1;
            if indeg.(dst) = 0 then Ftes_util.Pqueue.push ready dst)
          (Graph.out_messages g pid);
        drain ()
  in
  drain ();
  (* Every fold over a process's copies below runs in descending copy
     order, the order of the result's [placements]. *)
  let fold_copies f acc pid =
    let pls = by_copy.(pid) in
    let acc = ref acc in
    for copy = Array.length pls - 1 downto 0 do
      acc := f !acc pls.(copy)
    done;
    !acc
  in
  let makespan =
    let acc = ref 0. in
    for pid = 0 to nprocs - 1 do
      acc := fold_copies (fun a (p : placement) -> fmax a p.finish) !acc pid
    done;
    !acc
  in
  let root_makespan =
    let acc = ref makespan in
    Array.iter
      (Array.iter (fun (mp : msg_placement) -> acc := fmax !acc mp.finish))
      msg_by_copy;
    !acc
  in
  (* Shared recovery slack: at most k faults total, so the estimate
     charges the worst single process group — all k faults hitting its
     copies. For one copy the raw slack is its recovery cost W - E0; for
     a replicated process it is the gap between the last copy's
     worst-case completion (faults may invalidate every earlier replica)
     and the earliest completion the root schedule relies on.

     A delay at a process only extends the makespan past its downstream
     laxity: the distance between the completion of its successor cone
     (dependency successors plus later work on the same nodes) and the
     makespan. Conditional schedules absorb recoveries into that laxity
     (scenario tracks diverge only where faults actually happen), which
     is what makes policy assignment sensitive to process criticality. *)
  let group_slack pid =
    let pls = by_copy.(pid) in
    let n = Array.length pls in
    if n = 0 then 0.
    else
      let last = pls.(n - 1) in
      let worst =
        fold_copies (fun acc (p : placement) -> fmax acc p.worst_finish)
          last.worst_finish pid
      in
      let earliest =
        fold_copies (fun acc (p : placement) -> fmin acc p.finish)
          last.finish pid
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
      let dc =
        Array.init nprocs
          (fold_copies (fun acc (p : placement) -> fmax acc p.finish) 0.)
      in
      (* Successor in schedule order on each node, at process level:
         each node's copies in ascending start, ties in descending pid
         then ascending copy. *)
      let node_next = Array.make nprocs [] in
      let per_node = Array.make (Arch.node_count arch) [] in
      for pid = 0 to nprocs - 1 do
        let pls = by_copy.(pid) in
        for copy = Array.length pls - 1 downto 0 do
          let p = pls.(copy) in
          per_node.(p.node) <- p :: per_node.(p.node)
        done
      done;
      Array.iter
        (fun pls ->
          let rec walk = function
            | (a : placement) :: (b :: _ as rest) ->
                if b.pid <> a.pid then
                  node_next.(a.pid) <- b.pid :: node_next.(a.pid);
                walk rest
            | [ _ ] | [] -> ()
          in
          walk
            (List.sort
               (fun (a : placement) b -> Float.compare a.start b.start)
               pls))
        per_node;
      (* Relaxation neighbours of each process: its consumers, then its
         same-node successors. *)
      let next =
        Array.init nprocs (fun pid ->
            let consumers =
              List.sort_uniq Int.compare
                (List.map
                   (fun mid -> (Graph.message g mid).Graph.dst)
                   (Graph.out_messages g pid))
            in
            Array.of_list (consumers @ node_next.(pid)))
      in
      let changed = ref true in
      let passes = ref 0 in
      while !changed && !passes < 64 do
        changed := false;
        incr passes;
        for pid = nprocs - 1 downto 0 do
          let qs = next.(pid) in
          let d = ref dc.(pid) in
          for j = 0 to Array.length qs - 1 do
            d := fmax !d dc.(qs.(j))
          done;
          if !d > dc.(pid) +. 1e-9 then begin
            dc.(pid) <- !d;
            changed := true
          end
        done
      done;
      let penalty pid =
        let laxity = fmax 0. (makespan -. dc.(pid)) in
        fmax 0. (group_slack pid -. laxity)
      in
      for pid = 0 to nprocs - 1 do
        penalties.(pid) <- penalty pid
      done;
      Array.fold_left fmax 0. penalties
    end
  in
  let placements = ref [] in
  for pid = nprocs - 1 downto 0 do
    Array.iter (fun p -> placements := p :: !placements) by_copy.(pid)
  done;
  let msg_placements = ref [] in
  for mid = nmsgs - 1 downto 0 do
    for copy = Array.length msg_by_copy.(mid) - 1 downto 0 do
      msg_placements := msg_by_copy.(mid).(copy) :: !msg_placements
    done
  done;
  {
    root_makespan;
    slack_term;
    length = root_makespan +. slack_term;
    placements = !placements;
    msg_placements = !msg_placements;
    penalties;
  }

let length ?ft problem = (evaluate ?ft problem).length

let critical_processes r =
  let pairs = Array.to_list (Array.mapi (fun pid p -> (pid, p)) r.penalties) in
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    (List.filter (fun (_, p) -> p > 0.) pairs)

let fto ~ft_length ~nft_length =
  if nft_length <= 0. then 0.
  else (ft_length -. nft_length) /. nft_length *. 100.

let pp_result ppf r =
  Format.fprintf ppf
    "root makespan %g + slack %g = worst-case length %g (%d copies, %d \
     transmissions)"
    r.root_makespan r.slack_term r.length
    (List.length r.placements)
    (List.length r.msg_placements)
