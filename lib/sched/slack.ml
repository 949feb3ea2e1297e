module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Graph = Ftes_app.Graph
module App = Ftes_app.App
module Policy = Ftes_app.Policy
module Fttime = Ftes_app.Fttime
module Overheads = Ftes_app.Overheads
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

(* ------------------------------------------------------------------ *)
(* Per-universe tables                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything the estimator reads that depends only on the universe
   (application, WCET table, architecture), flattened once: a search
   evaluates thousands of designs of one universe in a row. Rows of a
   per-process relation are [off.(pid) .. off.(pid + 1) - 1] of a flat
   array. *)
type universe = {
  app : App.t;
  wcet : Wcet.t;
  arch : Arch.t;
  nprocs : int;
  nodes : int;
  in_off : int array;
  in_mid : int array;  (** [Graph.in_messages] order. *)
  out_off : int array;
  out_mid : int array;  (** [Graph.out_messages] order. *)
  cons_off : int array;
  cons : int array;  (** Distinct consumers, ascending. *)
  src : int array;
  dst : int array;
  size : float array;
  tx : float array;  (** [Bus.tx_time] of every message. *)
  frozen_proc : bool array;
  frozen_msg : bool array;
  release : float array;
  overheads : Overheads.t array;
  wcet_at : float array;  (** [pid * nodes + nid]; nan where forbidden. *)
  indeg : int array;
  view : Lane.view;
  bus_lanes : int;  (** Length of [Lane.bus_lanes view]. *)
  prio : float array;
}

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

let flatten n row =
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + List.length (row i)
  done;
  let data = Array.make off.(n) 0 in
  for i = 0 to n - 1 do
    List.iteri (fun j x -> data.(off.(i) + j) <- x) (row i)
  done;
  (off, data)

let make_universe app wcet arch =
  let g = app.App.graph in
  let transparency = app.App.transparency in
  let bus = Arch.bus arch in
  let nprocs = Graph.process_count g in
  let nodes = Arch.node_count arch in
  let msgs = Graph.messages g in
  let procs = Graph.processes g in
  let in_off, in_mid = flatten nprocs (Graph.in_messages g) in
  let out_off, out_mid = flatten nprocs (Graph.out_messages g) in
  let cons_off, cons =
    flatten nprocs (fun pid ->
        List.sort_uniq Int.compare
          (List.map (fun mid -> msgs.(mid).Graph.dst) (Graph.out_messages g pid)))
  in
  let indeg = Array.make nprocs 0 in
  Array.iter
    (fun (m : Graph.message) -> indeg.(m.Graph.dst) <- indeg.(m.Graph.dst) + 1)
    msgs;
  let view = Lane.view bus ~nodes in
  {
    app;
    wcet;
    arch;
    nprocs;
    nodes;
    in_off;
    in_mid;
    out_off;
    out_mid;
    cons_off;
    cons;
    src = Array.map (fun (m : Graph.message) -> m.Graph.src) msgs;
    dst = Array.map (fun (m : Graph.message) -> m.Graph.dst) msgs;
    size = Array.map (fun (m : Graph.message) -> m.Graph.size) msgs;
    tx = Array.map (fun (m : Graph.message) -> Bus.tx_time bus ~size:m.Graph.size) msgs;
    frozen_proc =
      Array.init nprocs (fun pid -> Transparency.is_frozen_proc transparency pid);
    frozen_msg =
      Array.init (Array.length msgs) (fun mid ->
          Transparency.is_frozen_msg transparency mid);
    release = Array.map (fun (p : Graph.process) -> p.Graph.release) procs;
    overheads = Array.map (fun (p : Graph.process) -> p.Graph.overheads) procs;
    wcet_at =
      Array.init (nprocs * nodes) (fun i ->
          match Wcet.get wcet ~pid:(i / nodes) ~nid:(i mod nodes) with
          | Some c -> c
          | None -> nan);
    indeg;
    view;
    bus_lanes = Array.length (Lane.bus_lanes view);
    prio = compute_priorities g wcet bus;
  }

(* Each domain keeps the last universe's tables, keyed by the physical
   identity of the three inputs; the tables are never written after
   they are built. *)
let tables : universe option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let universe (p : Problem.t) =
  match Domain.DLS.get tables with
  | Some u
    when u.app == p.Problem.app && u.wcet == p.Problem.wcet
         && u.arch == p.Problem.arch ->
      u
  | _ ->
      let u = make_universe p.Problem.app p.Problem.wcet p.Problem.arch in
      Domain.DLS.set tables (Some u);
      u

(* ------------------------------------------------------------------ *)
(* Per-domain scratch                                                   *)
(* ------------------------------------------------------------------ *)

(* An all-float record is stored flat: its fields are written unboxed. *)
type figures = { mutable root : float; mutable slack : float }

(* One evaluation's state, reused by every evaluation of the domain and
   grown to the largest design seen. Copies are numbered process by
   process: copy [c] of process [pid] is [copy_off.(pid) + c], and the
   transmission of message [mid] by producer copy [c] is
   [msg_off.(mid) + c]. Every entry read by an evaluation is written by
   it first. *)
type scratch = {
  mutable node_lanes : Lane.t array;
  mutable bus_lanes : Lane.t array;
  mutable copy_off : int array;
  mutable owner : int array;  (** Process of each copy. *)
  mutable node : int array;
  mutable start : float array;
  mutable finish : float array;
  mutable worst : float array;
  mutable msg_off : int array;
  mutable m_start : float array;
  mutable m_finish : float array;
  mutable m_bus : bool array;
  mutable heap : int array;
  mutable heap_len : int;
  mutable indeg : int array;
  mutable placed : int array;  (** Copies in placement order. *)
  mutable by_node : int array;  (** Copies by (node, start). *)
  mutable bucket : int array;  (** Per-node bucket bounds in [by_node]. *)
  mutable node_next : int array;
      (** Process of the next copy on the same node, or -1. *)
  mutable dc : float array;
  mutable penalties : float array;
  fig : figures;
}

let scratch : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        node_lanes = [||];
        bus_lanes = [||];
        copy_off = [||];
        owner = [||];
        node = [||];
        start = [||];
        finish = [||];
        worst = [||];
        msg_off = [||];
        m_start = [||];
        m_finish = [||];
        m_bus = [||];
        heap = [||];
        heap_len = 0;
        indeg = [||];
        placed = [||];
        by_node = [||];
        bucket = [||];
        node_next = [||];
        dc = [||];
        penalties = [||];
        fig = { root = 0.; slack = 0. };
      })

(* [a] if it has room for [n] entries, else a larger array of [x]s. *)
let grow a n x =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) x

let lanes a n =
  if Array.length a >= n then a
  else
    Array.init (max n (2 * Array.length a)) (fun i ->
        if i < Array.length a then a.(i) else Lane.create ())

(* The ready queue: a binary heap of pids, highest priority first, ties
   to the lower pid — a total order, so the pop sequence is that of any
   priority queue over the same comparison. *)
let[@inline] before prio a b =
  match Float.compare (-.prio.(a)) (-.prio.(b)) with
  | 0 -> a < b
  | c -> c < 0

let push s prio pid =
  let h = s.heap in
  let i = ref s.heap_len in
  s.heap_len <- s.heap_len + 1;
  while !i > 0 && before prio pid h.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    h.(!i) <- h.(parent);
    i := parent
  done;
  h.(!i) <- pid

let pop s prio =
  let h = s.heap in
  let top = h.(0) in
  let n = s.heap_len - 1 in
  s.heap_len <- n;
  let last = h.(n) in
  let i = ref 0 and go = ref (n > 0) in
  while !go do
    let l = (2 * !i) + 1 in
    if l >= n then go := false
    else begin
      let c = if l + 1 < n && before prio h.(l + 1) h.(l) then l + 1 else l in
      if before prio h.(c) last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else go := false
    end
  done;
  if n > 0 then h.(!i) <- last;
  top

(* Copy [a] precedes copy [b] of the same node: ascending start, ties in
   descending pid, then ascending copy. *)
let[@inline] earlier s a b =
  match Float.compare s.start.(a) s.start.(b) with
  | 0 ->
      let pa = s.owner.(a) and pb = s.owner.(b) in
      pa > pb || (pa = pb && a < b)
  | c -> c < 0

(* ------------------------------------------------------------------ *)
(* The kernel                                                           *)
(* ------------------------------------------------------------------ *)

(* Schedules [problem] into the domain's scratch and returns it: the
   placements in the copy-indexed arrays, the penalties in
   [penalties.(0 .. nprocs - 1)], the two figures in [fig]. *)
let schedule ~ft (problem : Problem.t) =
  let u = universe problem in
  let s = Domain.DLS.get scratch in
  let k = problem.Problem.k in
  let mapping = problem.Problem.mapping in
  let policies = problem.Problem.policies in
  let n = u.nprocs in
  let nmsgs = Array.length u.src in
  s.copy_off <- grow s.copy_off (n + 1) 0;
  s.msg_off <- grow s.msg_off (nmsgs + 1) 0;
  let off = s.copy_off and moff = s.msg_off in
  off.(0) <- 0;
  for pid = 0 to n - 1 do
    off.(pid + 1) <-
      (off.(pid) + if ft then Policy.replica_count policies.(pid) else 1)
  done;
  moff.(0) <- 0;
  for mid = 0 to nmsgs - 1 do
    let src = u.src.(mid) in
    moff.(mid + 1) <- moff.(mid) + off.(src + 1) - off.(src)
  done;
  let ncopies = off.(n) and nmcopies = moff.(nmsgs) in
  s.owner <- grow s.owner ncopies 0;
  s.node <- grow s.node ncopies 0;
  s.start <- grow s.start ncopies 0.;
  s.finish <- grow s.finish ncopies 0.;
  s.worst <- grow s.worst ncopies 0.;
  s.placed <- grow s.placed ncopies 0;
  s.by_node <- grow s.by_node ncopies 0;
  s.node_next <- grow s.node_next ncopies 0;
  s.m_start <- grow s.m_start nmcopies 0.;
  s.m_finish <- grow s.m_finish nmcopies 0.;
  s.m_bus <- grow s.m_bus nmcopies false;
  s.heap <- grow s.heap n 0;
  s.indeg <- grow s.indeg n 0;
  s.dc <- grow s.dc n 0.;
  s.penalties <- grow s.penalties n 0.;
  s.bucket <- grow s.bucket u.nodes 0;
  s.node_lanes <- lanes s.node_lanes u.nodes;
  s.bus_lanes <- lanes s.bus_lanes u.bus_lanes;
  for i = 0 to u.nodes - 1 do
    Lane.clear s.node_lanes.(i)
  done;
  for i = 0 to u.bus_lanes - 1 do
    Lane.clear s.bus_lanes.(i)
  done;
  for pid = 0 to n - 1 do
    for i = off.(pid) to off.(pid + 1) - 1 do
      s.owner.(i) <- pid
    done
  done;
  let nplaced = ref 0 in
  let place_process pid =
    let o = off.(pid) in
    let nc = off.(pid + 1) - o in
    let frozen_p = ft && u.frozen_proc.(pid) in
    (* Ascending copy order: each copy sees the node lanes as the
       previous copies left them. *)
    for copy = 0 to nc - 1 do
      let node = Mapping.node_of mapping ~pid ~copy in
      let c = u.wcet_at.((pid * u.nodes) + node) in
      (* Fault-free and worst-case execution lengths. *)
      let plan = policies.(pid).Policy.copies.(copy) in
      let ov = u.overheads.(pid) in
      let checkpoints = plan.Policy.checkpoints in
      let e0 =
        if ft then Fttime.no_fault_length ~c ov ~checkpoints else c
      in
      let w =
        if ft then
          Fttime.worst_case_length ~c ov ~checkpoints
            ~recoveries:(Int.min plan.Policy.recoveries k)
        else c
      in
      (* Arrival of the inputs in the fault-free root schedule. With
         active replication every copy delivers a valid input when no
         fault occurs, so the consumer proceeds with the earliest one;
         waiting for a later replica is a fault-scenario cost accounted
         in the slack term. A frozen consumer also waits for the
         worst-case arrival: producer worst-case completion plus raw
         transmission time. *)
      let arrival = ref 0. in
      for j = u.in_off.(pid) to u.in_off.(pid + 1) - 1 do
        let mid = u.in_mid.(j) in
        let src = u.src.(mid) in
        let so = off.(src) and mo = moff.(mid) in
        let nsrc = off.(src + 1) - so in
        let a = ref 0. in
        for sc = 0 to nsrc - 1 do
          let at =
            if s.node.(so + sc) = node then s.m_start.(mo + sc)
            else s.m_finish.(mo + sc)
          in
          a := if sc = 0 then at else fmin !a at
        done;
        if frozen_p then begin
          let wa = ref 0. in
          for sc = 0 to nsrc - 1 do
            let tx = if s.node.(so + sc) = node then 0. else u.tx.(mid) in
            wa := fmax !wa (s.worst.(so + sc) +. tx)
          done;
          a := fmax !a !wa
        end;
        arrival := fmax !arrival !a
      done;
      let lane = s.node_lanes.(node) in
      let start =
        Lane.earliest_gap lane
          ~from_:(fmax !arrival u.release.(pid))
          ~duration:e0
      in
      ignore (Lane.reserve lane ~start ~finish:(start +. e0));
      let i = o + copy in
      s.node.(i) <- node;
      s.start.(i) <- start;
      s.finish.(i) <- start +. e0;
      s.worst.(i) <- start +. w;
      s.placed.(!nplaced) <- i;
      incr nplaced
    done;
    (* Transmissions of this process's outputs, one per producer copy.
       Bus placement order (descending copy) is part of the pinned
       schedule and must not change. *)
    for j = u.out_off.(pid) to u.out_off.(pid + 1) - 1 do
      let mid = u.out_mid.(j) in
      let frozen_m = ft && u.frozen_msg.(mid) in
      let dst = u.dst.(mid) in
      let dst_copies = off.(dst + 1) - off.(dst) in
      let mo = moff.(mid) in
      for copy = nc - 1 downto 0 do
        let i = o + copy in
        let pnode = s.node.(i) in
        let send_ready = if frozen_m then s.worst.(i) else s.finish.(i) in
        let crosses = ref false and c = ref 0 in
        if u.size.(mid) > 0. then
          while (not !crosses) && !c < dst_copies do
            crosses := Mapping.node_of mapping ~pid:dst ~copy:!c <> pnode;
            incr c
          done;
        if !crosses then begin
          let tx = u.tx.(mid) in
          let lane = s.bus_lanes.(Lane.bus_lane u.view ~src:pnode) in
          let st =
            Lane.find_window lane u.view ~src:pnode ~tx ~earliest:send_ready
          in
          let f = Lane.window_finish u.view ~tx st in
          ignore (Lane.reserve lane ~start:st ~finish:f);
          s.m_start.(mo + copy) <- st;
          s.m_finish.(mo + copy) <- f;
          s.m_bus.(mo + copy) <- true
        end
        else begin
          s.m_start.(mo + copy) <- send_ready;
          s.m_finish.(mo + copy) <- send_ready;
          s.m_bus.(mo + copy) <- false
        end
      done
    done
  in
  (* Priority list scheduling at process granularity: a process is ready
     once all producers are fully placed. *)
  s.heap_len <- 0;
  for pid = 0 to n - 1 do
    s.indeg.(pid) <- u.indeg.(pid);
    if u.indeg.(pid) = 0 then push s u.prio pid
  done;
  while s.heap_len > 0 do
    let pid = pop s u.prio in
    place_process pid;
    for j = u.out_off.(pid) to u.out_off.(pid + 1) - 1 do
      let d = u.dst.(u.out_mid.(j)) in
      s.indeg.(d) <- s.indeg.(d) - 1;
      if s.indeg.(d) = 0 then push s u.prio d
    done
  done;
  (* Every fold over a process's copies below runs in descending copy
     order, the order of the result's [placements]. *)
  let makespan = ref 0. in
  for pid = 0 to n - 1 do
    for i = off.(pid + 1) - 1 downto off.(pid) do
      makespan := fmax !makespan s.finish.(i)
    done
  done;
  let makespan = !makespan in
  let root = ref makespan in
  for i = 0 to nmcopies - 1 do
    root := fmax !root s.m_finish.(i)
  done;
  s.fig.root <- !root;
  let pen = s.penalties in
  if not ft then begin
    Array.fill pen 0 n 0.;
    s.fig.slack <- 0.
  end
  else begin
    (* Shared recovery slack: at most k faults total, so the estimate
       charges the worst single process group — all k faults hitting
       its copies. For one copy the raw slack is its recovery cost
       W - E0; for a replicated process it is the gap between the last
       copy's worst-case completion (faults may invalidate every earlier
       replica) and the earliest completion the root schedule relies on.

       A delay at a process only extends the makespan past its
       downstream laxity: the distance between the completion of its
       successor cone (dependency successors plus later work on the same
       nodes) and the makespan. Conditional schedules absorb recoveries
       into that laxity (scenario tracks diverge only where faults
       actually happen), which is what makes policy assignment sensitive
       to process criticality.

       The cone's completion [dc] is found by relaxation over dependency
       edges and same-node schedule order (the conservative
       process-level closure may contain cycles through replicas). *)
    let dc = s.dc in
    for pid = 0 to n - 1 do
      let d = ref 0. in
      for i = off.(pid + 1) - 1 downto off.(pid) do
        d := fmax !d s.finish.(i)
      done;
      dc.(pid) <- !d
    done;
    (* Same-node successors: bucket the copies by node in placement
       order, then insertion-sort each bucket (placement order is nearly
       sorted by start already). *)
    let bucket = s.bucket in
    Array.fill bucket 0 u.nodes 0;
    for i = 0 to ncopies - 1 do
      bucket.(s.node.(i)) <- bucket.(s.node.(i)) + 1
    done;
    for nd = 1 to u.nodes - 1 do
      bucket.(nd) <- bucket.(nd) + bucket.(nd - 1)
    done;
    let by_node = s.by_node in
    for j = ncopies - 1 downto 0 do
      let i = s.placed.(j) in
      let nd = s.node.(i) in
      bucket.(nd) <- bucket.(nd) - 1;
      by_node.(bucket.(nd)) <- i
    done;
    (* [bucket.(nd)] is now bucket [nd]'s first slot. *)
    for nd = 0 to u.nodes - 1 do
      let lo = bucket.(nd) in
      let hi = if nd = u.nodes - 1 then ncopies else bucket.(nd + 1) in
      for j = lo + 1 to hi - 1 do
        let x = by_node.(j) in
        let p = ref j in
        while !p > lo && earlier s x by_node.(!p - 1) do
          by_node.(!p) <- by_node.(!p - 1);
          decr p
        done;
        by_node.(!p) <- x
      done;
      for j = lo to hi - 1 do
        let a = by_node.(j) in
        s.node_next.(a) <-
          (if j + 1 < hi && s.owner.(by_node.(j + 1)) <> s.owner.(a) then
             s.owner.(by_node.(j + 1))
           else -1)
      done
    done;
    let changed = ref true in
    let passes = ref 0 in
    while !changed && !passes < 64 do
      changed := false;
      incr passes;
      for pid = n - 1 downto 0 do
        let d = ref dc.(pid) in
        for j = u.cons_off.(pid) to u.cons_off.(pid + 1) - 1 do
          d := fmax !d dc.(u.cons.(j))
        done;
        for i = off.(pid) to off.(pid + 1) - 1 do
          let q = s.node_next.(i) in
          if q >= 0 then d := fmax !d dc.(q)
        done;
        if !d > dc.(pid) +. 1e-9 then begin
          dc.(pid) <- !d;
          changed := true
        end
      done
    done;
    let slack = ref 0. in
    for pid = 0 to n - 1 do
      let last = off.(pid + 1) - 1 in
      let worst = ref s.worst.(last) and earliest = ref s.finish.(last) in
      for i = last downto off.(pid) do
        worst := fmax !worst s.worst.(i);
        earliest := fmin !earliest s.finish.(i)
      done;
      let laxity = fmax 0. (makespan -. dc.(pid)) in
      pen.(pid) <- fmax 0. (!worst -. !earliest -. laxity);
      slack := fmax !slack pen.(pid)
    done;
    s.fig.slack <- !slack
  end;
  s

let length ?(ft = true) problem =
  let s = schedule ~ft problem in
  s.fig.root +. s.fig.slack

let estimate ?(ft = true) problem =
  let s = schedule ~ft problem in
  {
    root_makespan = s.fig.root;
    slack_term = s.fig.slack;
    length = s.fig.root +. s.fig.slack;
    placements = [];
    msg_placements = [];
    penalties =
      Array.sub s.penalties 0 (Graph.process_count (Problem.graph problem));
  }

let evaluate ?ft problem =
  let r = estimate ?ft problem in
  let s = Domain.DLS.get scratch in
  let off = s.copy_off and moff = s.msg_off in
  let placements = ref [] in
  for pid = Array.length r.penalties - 1 downto 0 do
    for i = off.(pid) to off.(pid + 1) - 1 do
      placements :=
        { pid; copy = i - off.(pid); node = s.node.(i); start = s.start.(i);
          finish = s.finish.(i); worst_finish = s.worst.(i) }
        :: !placements
    done
  done;
  let msg_placements = ref [] in
  for mid = Graph.message_count (Problem.graph problem) - 1 downto 0 do
    for i = moff.(mid + 1) - 1 downto moff.(mid) do
      msg_placements :=
        { mid; copy = i - moff.(mid); start = s.m_start.(i);
          finish = s.m_finish.(i); on_bus = s.m_bus.(i) }
        :: !msg_placements
    done
  done;
  { r with placements = !placements; msg_placements = !msg_placements }

let critical_processes (r : result) =
  let pairs = Array.to_list (Array.mapi (fun pid p -> (pid, p)) r.penalties) in
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    (List.filter (fun (_, p) -> p > 0.) pairs)

let fto ~ft_length ~nft_length =
  if nft_length <= 0. then 0.
  else (ft_length -. nft_length) /. nft_length *. 100.

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "root makespan %g + slack %g = worst-case length %g (%d copies, %d \
     transmissions)"
    r.root_makespan r.slack_term r.length
    (List.length r.placements)
    (List.length r.msg_placements)
