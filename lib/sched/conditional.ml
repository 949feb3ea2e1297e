module Cond = Ftes_ftcpg.Cond
module Ftcpg = Ftes_ftcpg.Ftcpg
module Problem = Ftes_ftcpg.Problem
module Graph = Ftes_app.Graph
module Arch = Ftes_arch.Arch
module Bus = Ftes_arch.Bus
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)
module Telemetry = Ftes_util.Telemetry
module Events = Ftes_util.Events

(* Unrevealed conditions as [(revelation time, cond)]. The elements are
   distinct (one per conditional vertex), so the minimum is the element
   a min-heap under the same [compare] would pop. *)
module Pending = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let c_fix_iterations = Telemetry.counter "sched.fix_iterations"
let c_ready_hits = Telemetry.counter "sched.ready_hits"
let c_cache_inval = Telemetry.counter "sched.cache_invalidations"

let cond_size = 1.
let track_cap = 20_000
let fix_iter_cap = 64

exception Blocked of string
exception Too_many_tracks of int
exception Fixpoint_diverged of int

let eps = 1e-6

(* Partial-critical-path priority: longest downstream chain. *)
let priorities ftcpg =
  let n = Ftcpg.vertex_count ftcpg in
  let pcp = Array.make n 0. in
  for vid = n - 1 downto 0 do
    let v = Ftcpg.vertex ftcpg vid in
    let down =
      List.fold_left (fun acc s -> max acc pcp.(s)) 0. v.Ftcpg.succs
    in
    pcp.(vid) <- v.Ftcpg.duration +. down
  done;
  pcp

(* ------------------------------------------------------------------ *)
(* The paper's algorithm with three independent optimizations. The
   direct transcription (full rescan and timeline copy per commit)
   lives in the tests as [Conditional_oracle], whose tables the digest
   tests require this scheduler to reproduce byte for byte.

   {b Incremental ready set.} A vertex is ready iff its guard literals
   are all in the track guard and every predecessor is finished or
   incompatible with the track. Instead of re-deriving this for every
   vertex after every commit, each track keeps per-vertex counters:
   [unmet] (predecessors neither finished nor incompatible) and [ggap]
   (guard literals not yet in the track guard), plus a [dead] flag
   (vertex incompatible with the track). A commit decrements [unmet] of
   the committed vertex's successors; revealing a condition outcome
   decrements [ggap] of the matching-polarity vertices and kills the
   opposite-polarity ones (which releases their successors). A vertex
   enters the ready set exactly when both counters reach zero. The set
   is iterated in ascending vertex id — the same order as the oracle's
   full rescan, which matters because the eps-tolerant "better candidate"
   comparison is not transitive. A leaf is complete iff no vertex has
   [ggap = 0] and is unfinished; the track counts those vertices, so
   only a failing leaf scans them (to name one).

   {b Placement memoization.} For a ready vertex the base time is a
   constant of the track (predecessor finishes are final, revelation
   and broadcast times are recorded before the literal can enter the
   guard), so its tentative placement only changes when the lane it
   targets does. Each cached placement stores that lane and its length
   and stays valid while the length is unchanged: a lane only grows
   between undos, and an undo also restores every cache entry written
   since its mark, so equal length means equal contents. A commit on one
   CPU or bus lane leaves every other lane's cached placements valid.
   Frozen prereserved placements and [Local] items depend on nothing
   and stay valid for the whole track.

   {b One mutable track + undo trail.} The walk keeps a single copy of
   the vertex-sized arrays ([unmet], [ggap], [dead], finish times, the
   placement cache) and of the {!Lane}s of every node and bus lane.
   Every in-place write pushes an undo record (a reservation pushes its
   lane and insertion index); a revelation fork marks the trail, runs
   the fault subtree, pops back to the mark and runs the no-fault
   subtree on the restored arrays, so a fork costs O(writes below it)
   instead of O(vertices). Everything else in a track is persistent and
   simply kept by the fork. The walk is sequential; [jobs] goes to
   {!Table.assemble}, where the time is. *)
(* ------------------------------------------------------------------ *)

(* A cached placement depends on lane [c_lane] (-1: on none) and is
   valid while that lane's length is still [c_len]. *)
type centry = {
  c_start : float;
  c_fin : float;
  c_res : Table.resource;
  c_pre : bool;  (* placed inside a pre-reserved frozen window *)
  c_lane : int;
  c_len : int;
}

(* The empty cache slot. *)
let no_entry =
  { c_start = nan; c_fin = nan; c_res = Table.Local; c_pre = false;
    c_lane = -1; c_len = 0 }

(* The persistent part of a track: a fork keeps it by holding on to the
   value. *)
type state = {
  guard : Cond.guard;
  faults : int;
  bcast : float Imap.t;  (* condition -> broadcast arrival *)
  pending : Pending.t;  (* unrevealed conditions *)
  entries : Table.entry list;  (* reversed *)
  emitted : Table.entry list;
      (* The suffix of [entries] that a track earlier in DFS order
         hands to assembly: a leaf emits only the entries above it. *)
  makespan : float;
  ready : Iset.t;  (* vertices with unmet = 0, ggap = 0, unscheduled *)
  opened : int;  (* vertices with ggap = 0, unscheduled *)
}

(* The mutable part of the track being walked, with its undo trail.
   [ops] holds one code [(index lsl 3) lor tag] per write, newest last.
   [unmet] and [ggap] only ever drop by one, [dead] only ever goes from
   0 to 1 and [finish] is written once per vertex, so their codes alone
   undo them; the replaced cache entries and the insertion indices of
   reservations (whose code carries the lane) wait on their own stacks,
   popped in step. *)
type arrays = {
  lanes : Lane.t array;
      (* node [n] at index [n], then the bus lanes of [Lane.bus_lanes] *)
  finish : float array;
      (* finish time per scheduled vertex, [nan] while unscheduled; a
         condition is revealed when its vertex finishes *)
  unmet : int array;  (* preds neither finished nor dead, per vertex *)
  ggap : int array;  (* guard literals not yet in the track guard *)
  dead : Bytes.t;  (* '\001' when incompatible with the track guard *)
  cache : centry array;  (* memoized tentative placements *)
  mutable ops : int array;
  mutable nops : int;
  mutable old_cache : centry array;
  mutable ncache : int;
  mutable idx : int array;  (* insertion indices of reservations *)
  mutable nidx : int;
}

let tag_unmet = 0
let tag_ggap = 1
let tag_dead = 2
let tag_cache = 3
let tag_lane = 4
let tag_finish = 5

(* [a] with twice the room, its first [len] slots kept. *)
let grown a len dummy =
  let b = Array.make (2 * len) dummy in
  Array.blit a 0 b 0 len;
  b

let push_op w i tag =
  if w.nops = Array.length w.ops then w.ops <- grown w.ops w.nops 0;
  Array.unsafe_set w.ops w.nops ((i lsl 3) lor tag);
  w.nops <- w.nops + 1

let decr_unmet w i =
  w.unmet.(i) <- w.unmet.(i) - 1;
  push_op w i tag_unmet

let decr_ggap w i =
  w.ggap.(i) <- w.ggap.(i) - 1;
  push_op w i tag_ggap

let kill w i =
  Bytes.set w.dead i '\001';
  push_op w i tag_dead

let set_finish w i f =
  w.finish.(i) <- f;
  push_op w i tag_finish

let finished w i = not (Float.is_nan w.finish.(i))

(* Each of [succs] loses one unmet predecessor; those that become ready
   join [ready]. *)
let release w ready succs =
  List.fold_left
    (fun ready s ->
      decr_unmet w s;
      if
        w.unmet.(s) = 0
        && w.ggap.(s) = 0
        && Bytes.get w.dead s = '\000'
        && not (finished w s)
      then Iset.add s ready
      else ready)
    ready succs

let set_cache w i e =
  if w.ncache = Array.length w.old_cache then
    w.old_cache <- grown w.old_cache w.ncache no_entry;
  Array.unsafe_set w.old_cache w.ncache w.cache.(i);
  w.ncache <- w.ncache + 1;
  w.cache.(i) <- e;
  push_op w i tag_cache

(* Reserve [start, finish) on lane [l]; an empty interval reserves
   nothing and leaves no record. *)
let reserve w l ~start ~finish =
  let p = Lane.reserve w.lanes.(l) ~start ~finish in
  if p >= 0 then begin
    if w.nidx = Array.length w.idx then
      w.idx <- grown w.idx w.nidx 0;
    Array.unsafe_set w.idx w.nidx p;
    w.nidx <- w.nidx + 1;
    push_op w l tag_lane
  end

(* Pop every write after [mark], newest first. *)
let undo w mark =
  while w.nops > mark do
    w.nops <- w.nops - 1;
    let code = w.ops.(w.nops) in
    let i = code lsr 3 in
    let tag = code land 7 in
    if tag = tag_unmet then w.unmet.(i) <- w.unmet.(i) + 1
    else if tag = tag_ggap then w.ggap.(i) <- w.ggap.(i) + 1
    else if tag = tag_dead then Bytes.set w.dead i '\000'
    else if tag = tag_finish then w.finish.(i) <- nan
    else if tag = tag_cache then begin
      w.ncache <- w.ncache - 1;
      w.cache.(i) <- w.old_cache.(w.ncache)
    end
    else begin
      w.nidx <- w.nidx - 1;
      Lane.remove w.lanes.(i) w.idx.(w.nidx)
    end
  done

let schedule ?(jobs = 1) ftcpg =
  Events.with_span ~cat:"sched" "sched.conditional" @@ fun () ->
  let problem = Ftcpg.problem ftcpg in
  let k = problem.Problem.k in
  let g = Problem.graph problem in
  let arch = problem.Problem.arch in
  let bus_spec = Arch.bus arch in
  let nnodes = Arch.node_count arch in
  let nverts = Ftcpg.vertex_count ftcpg in
  let pcp = priorities ftcpg in
  let vert = Ftcpg.vertex ftcpg in
  let view = Lane.view bus_spec ~nodes:nnodes in
  let bus_lane src = nnodes + Lane.bus_lane view ~src in
  (* Static per-graph indices for the incremental bookkeeping. *)
  let npreds0 = Array.init nverts (fun vid -> List.length (vert vid).Ftcpg.preds) in
  let nlits0 =
    Array.init nverts (fun vid ->
        List.length (Cond.literals (vert vid).Ftcpg.guard))
  in
  (* Vertices whose guard contains the {cond, fault} literal, per cond
     id and polarity (cond ids are vertex ids of conditional vertices). *)
  let by_lit_t = Array.make nverts [] in
  let by_lit_f = Array.make nverts [] in
  for vid = nverts - 1 downto 0 do
    List.iter
      (fun (l : Cond.literal) ->
        if l.Cond.fault then by_lit_t.(l.Cond.cond) <- vid :: by_lit_t.(l.Cond.cond)
        else by_lit_f.(l.Cond.cond) <- vid :: by_lit_f.(l.Cond.cond))
      (Cond.literals (vert vid).Ftcpg.guard)
  done;
  let ready0 =
    let r = ref Iset.empty in
    for vid = 0 to nverts - 1 do
      if npreds0.(vid) = 0 && nlits0.(vid) = 0 then r := Iset.add vid !r
    done;
    !r
  in
  let opened0 =
    Array.fold_left (fun acc n -> if n = 0 then acc + 1 else acc) 0 nlits0
  in
  (* Frozen start times being fixed across iterations. Read-only while
     tracks are explored; merged with the observed demands between
     fixpoint iterations. *)
  let fixed : (int, float) Hashtbl.t = Hashtbl.create 16 in
  (* New or raised start demands observed during one exploration. *)
  let demands : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let demand vid t =
    let cur = try Hashtbl.find demands vid with Not_found -> neg_infinity in
    if t > cur then Hashtbl.replace demands vid t
  in
  let leaf_count = ref 0 in
  (* Finished tracks of one exploration, newest first, each with the
     entries it emits. *)
  let leaves = ref [] in

  let literal_available w st (l : Cond.literal) ~decision_node =
    let reveal =
      if finished w l.Cond.cond then w.finish.(l.Cond.cond)
      else infinity (* not yet revealed: cannot commit *)
    in
    match decision_node with
    | None -> reveal
    | Some n -> (
        match (vert l.Cond.cond).Ftcpg.exec_node with
        | Some pn when pn = n -> reveal
        | Some _ | None -> (
            match Imap.find_opt l.Cond.cond st.bcast with
            | Some t -> t
            | None -> infinity))
  in

  let decision_node (v : Ftcpg.vertex) =
    match v.Ftcpg.kind with
    | Ftcpg.Proc_copy _ -> v.Ftcpg.exec_node
    | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ ->
        if v.Ftcpg.on_bus then v.Ftcpg.src_node else None
    | Ftcpg.Sync_proc _ -> None
  in

  let base_time w st (v : Ftcpg.vertex) =
    let arrivals =
      List.fold_left
        (fun acc p -> if finished w p then max acc w.finish.(p) else acc)
        0. v.Ftcpg.preds
    in
    let release =
      match v.Ftcpg.kind with
      | Ftcpg.Proc_copy { pid; _ } -> (Graph.process g pid).Graph.release
      | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ -> 0.
    in
    let dn = decision_node v in
    let knowledge =
      List.fold_left
        (fun acc l -> max acc (literal_available w st l ~decision_node:dn))
        0.
        (Cond.literals v.Ftcpg.guard)
    in
    max arrivals (max release knowledge)
  in

  (* Natural (ASAP) placement of a vertex from its base time. *)
  let natural_place lanes (v : Ftcpg.vertex) base =
    match v.Ftcpg.kind with
    | Ftcpg.Proc_copy _ ->
        let n = Option.get v.Ftcpg.exec_node in
        let s =
          Lane.earliest_gap lanes.(n) ~from_:base ~duration:v.Ftcpg.duration
        in
        (s, s +. v.Ftcpg.duration, Table.Node n)
    | (Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _) when v.Ftcpg.on_bus ->
        let src = Option.get v.Ftcpg.src_node in
        let s, f =
          Lane.bus_window lanes.(bus_lane src) view ~src
            ~size:v.Ftcpg.msg_size ~earliest:base
        in
        (s, f, Table.Bus)
    | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ ->
        (base, base, Table.Local)
  in

  (* Placement respecting a fixed (frozen) start when one exists.
     Returns the placement plus whether the pre-reserved window is
     already accounted for in the timelines. *)
  let place w st (v : Ftcpg.vertex) =
    let base = base_time w st v in
    match Hashtbl.find_opt fixed v.Ftcpg.vid with
    | Some f when v.Ftcpg.frozen ->
        if base <= f +. eps then
          let resource =
            match v.Ftcpg.kind with
            | Ftcpg.Proc_copy _ -> Table.Node (Option.get v.Ftcpg.exec_node)
            | (Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _) when v.Ftcpg.on_bus ->
                Table.Bus
            | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ ->
                Table.Local
          in
          (f, f +. v.Ftcpg.duration, resource, true)
        else begin
          (* The frozen time is too early in this track: demand more. *)
          let s, fin, r = natural_place w.lanes v base in
          demand v.Ftcpg.vid s;
          (s, fin, r, false)
        end
    | Some _ | None ->
        let s, fin, r = natural_place w.lanes v base in
        if v.Ftcpg.frozen then demand v.Ftcpg.vid s;
        (s, fin, r, false)
  in

  (* The lane a placement of [v] on [res] depends on (-1: none). *)
  let lane_of (v : Ftcpg.vertex) res ~prereserved =
    if prereserved then -1
    else
      match res with
      | Table.Node n -> n
      | Table.Bus -> bus_lane (Option.get v.Ftcpg.src_node)
      | Table.Local -> -1
  in
  (* The base time of a ready vertex is a constant of its track, so a
     tentative placement stays valid until the lane it targets is
     touched (by a commit or a condition broadcast) — detected by the
     lane's length. [demand] side effects are max-accumulated and the
     demanded start only depends on the same state, so skipping the
     recomputation on a hit never loses a demand. *)
  let cached_place w st (v : Ftcpg.vertex) =
    let vid = v.Ftcpg.vid in
    let e = w.cache.(vid) in
    if
      e != no_entry
      && (e.c_lane < 0 || Lane.length w.lanes.(e.c_lane) = e.c_len)
    then begin
      Telemetry.incr c_ready_hits;
      e
    end
    else begin
      if e != no_entry then Telemetry.incr c_cache_inval;
      let s, fin, res, pre = place w st v in
      let l = lane_of v res ~prereserved:pre in
      let e =
        { c_start = s; c_fin = fin; c_res = res; c_pre = pre; c_lane = l;
          c_len = (if l < 0 then 0 else Lane.length w.lanes.(l)) }
      in
      set_cache w vid e;
      e
    end
  in

  let commit w st (v : Ftcpg.vertex) e =
    let vid = v.Ftcpg.vid in
    let start = e.c_start and fin = e.c_fin and resource = e.c_res in
    (* [c_lane] is -1 for [Local] items and pre-reserved windows. *)
    if e.c_lane >= 0 then reserve w e.c_lane ~start ~finish:fin;
    let entry =
      { Table.item = Table.Exec vid; guard = st.guard; start; finish = fin;
        resource }
    in
    let pending =
      if v.Ftcpg.conditional then Pending.add (fin, vid) st.pending
      else st.pending
    in
    set_finish w vid fin;
    (* The committed vertex leaves the ready set; its successors may
       join it. *)
    let ready = release w (Iset.remove vid st.ready) v.Ftcpg.succs in
    {
      st with
      pending;
      entries = entry :: st.entries;
      makespan = max st.makespan fin;
      ready;
      opened = st.opened - 1 (* [v] was ready, so it counted as open *);
    }
  in

  (* Extend the track guard with a revealed literal: matching-polarity
     vertices close one guard gap (and may become ready); opposite-
     polarity vertices become dead, permanently satisfying them as
     predecessors. A vertex gaining or losing here can never be in the
     ready set yet (its [ggap] was positive), and scheduled vertices
     never appear in either list (their guard literals were already in
     the track guard before this condition existed). *)
  let apply_literal w st (l : Cond.literal) =
    let ready = ref st.ready in
    let opened = ref st.opened in
    let same, opp =
      if l.Cond.fault then (by_lit_t.(l.Cond.cond), by_lit_f.(l.Cond.cond))
      else (by_lit_f.(l.Cond.cond), by_lit_t.(l.Cond.cond))
    in
    List.iter
      (fun vid ->
        if Bytes.get w.dead vid = '\000' then begin
          decr_ggap w vid;
          if w.ggap.(vid) = 0 && not (finished w vid) then begin
            incr opened;
            if w.unmet.(vid) = 0 then ready := Iset.add vid !ready
          end
        end)
      same;
    List.iter
      (fun vid ->
        if Bytes.get w.dead vid = '\000' then begin
          kill w vid;
          ready := release w !ready (vert vid).Ftcpg.succs
        end)
      opp;
    { st with guard = Cond.add_exn st.guard l; ready = !ready;
      opened = !opened }
  in

  let schedule_bcast w st (tr, vc) =
    if nnodes <= 1 then { st with bcast = Imap.add vc tr st.bcast }
    else
      let src =
        match (vert vc).Ftcpg.exec_node with
        | Some n -> n
        | None -> 0
      in
      let l = bus_lane src in
      let s, f =
        Lane.bus_window w.lanes.(l) view ~src ~size:cond_size
          ~earliest:tr
      in
      reserve w l ~start:s ~finish:f;
      let entry =
        { Table.item = Table.Bcast vc; guard = st.guard; start = s;
          finish = f; resource = Table.Bus }
      in
      {
        st with
        bcast = Imap.add vc f st.bcast;
        entries = entry :: st.entries;
      }
  in

  (* Depth-first exploration adding the finished tracks to [leaves] in
     DFS order. On return, [w] may hold writes of the explored subtree;
     the caller's fork undoes them. *)
  let rec walk w st =
    let next_reveal =
      match Pending.min_elt_opt st.pending with
      | None -> infinity
      | Some (t, _) -> t
    in
    (* Candidates placeable before the next revelation, scanned in
       ascending vertex id like the oracle's rescan (the eps-tolerant
       comparison is not transitive, so the order is part of the
       pinned behaviour). *)
    let best_vid = ref (-1) in
    let best = ref no_entry in
    Iset.iter
      (fun vid ->
        let e = cached_place w st (vert vid) in
        let s = e.c_start in
        if s < next_reveal -. eps then
          let better =
            !best_vid < 0
            ||
            let s' = (!best).c_start in
            s < s' -. eps
            || (Float.abs (s -. s') <= eps && pcp.(vid) > pcp.(!best_vid))
          in
          if better then begin
            best_vid := vid;
            best := e
          end)
      st.ready;
    if !best_vid >= 0 then
      walk w (commit w st (vert !best_vid) !best)
    else
      match Pending.min_elt_opt st.pending with
      | Some ((tr, vc) as c) ->
          let st =
            schedule_bcast w { st with pending = Pending.remove c st.pending }
              (tr, vc)
          in
          if st.faults < k then begin
            (* The fault subtree runs first in DFS order, so its first
               leaf emits the shared prefix; the no-fault branch then
               starts from the arrays as they were at the fork. *)
            let mark = w.nops in
            walk w
              (apply_literal w
                 { st with faults = st.faults + 1 }
                 { Cond.cond = vc; fault = true });
            undo w mark;
            walk w
              (apply_literal w
                 { st with emitted = st.entries }
                 { Cond.cond = vc; fault = false })
          end
          else walk w (apply_literal w st { Cond.cond = vc; fault = false })
      | None ->
          (* Leaf: every vertex reachable in this scenario must be
             done. [ggap = 0] is exactly "the track guard implies the
             vertex guard". *)
          if st.opened > 0 then
            for vid = 0 to nverts - 1 do
              if w.ggap.(vid) = 0 && not (finished w vid) then
                let v = vert vid in
                raise
                  (Blocked
                     (Printf.sprintf "vertex %s never activated in scenario %s"
                        v.Ftcpg.name
                        (Cond.to_string ~name:(Ftcpg.cond_name ftcpg) st.guard)))
            done;
          incr leaf_count;
          if !leaf_count > track_cap then raise (Too_many_tracks track_cap);
          let rec fresh acc es =
            if es == st.emitted then acc
            else
              match es with
              | e :: rest -> fresh (e :: acc) rest
              | [] -> acc
          in
          leaves :=
            (fresh [] st.entries, { Table.scenario = st.guard; makespan = st.makespan })
            :: !leaves
  in

  let initial_state () =
    let lanes =
      Array.append
        (Array.init nnodes (fun _ -> Lane.create ()))
        (Lane.bus_lanes view)
    in
    (* Pre-reserve the windows of frozen activations: transparency means
       no other activation may use (or even observe) those windows.
       Demands from independent tracks may collide; collisions bump the
       later window forward (monotone, so the fixpoint still
       terminates). *)
    let fixed_sorted =
      List.sort compare
        (Hashtbl.fold (fun vid f acc -> (f, vid) :: acc) fixed [])
    in
    List.iter
      (fun (f, vid) ->
        let v = vert vid in
        let s, fin, res = natural_place lanes v f in
        if s > f +. eps then Hashtbl.replace fixed vid s;
        let l = lane_of v res ~prereserved:false in
        if l >= 0 then ignore (Lane.reserve lanes.(l) ~start:s ~finish:fin))
      fixed_sorted;
    ( {
        guard = Cond.true_;
        faults = 0;
        bcast = Imap.empty;
        pending = Pending.empty;
        entries = [];
        emitted = [];
        makespan = 0.;
        ready = ready0;
        opened = opened0;
      },
      {
        lanes;
        finish = Array.make nverts nan;
        unmet = Array.copy npreds0;
        ggap = Array.copy nlits0;
        dead = Bytes.make (max nverts 1) '\000';
        cache = Array.make nverts no_entry;
        ops = Array.make 256 0;
        nops = 0;
        old_cache = Array.make 64 no_entry;
        ncache = 0;
        idx = Array.make 64 0;
        nidx = 0;
      } )
  in

  (* One exploration of the scenario tree, its tracks in DFS order. *)
  let run_tracks () =
    leaf_count := 0;
    leaves := [];
    let st0, w0 = initial_state () in
    walk w0 st0;
    List.rev !leaves
  in

  let rec iterate iter =
    if iter > fix_iter_cap then raise (Fixpoint_diverged fix_iter_cap);
    Telemetry.incr c_fix_iterations;
    Hashtbl.reset demands;
    let results =
      Events.with_span ~cat:"sched" "sched.fix_iter" run_tracks
    in
    let changed = ref false in
    Hashtbl.iter
      (fun vid t ->
        let cur = Hashtbl.find_opt fixed vid in
        match cur with
        | Some f when t <= f +. eps -> ()
        | Some _ | None ->
            changed := true;
            Hashtbl.replace fixed vid t)
      demands;
    if !changed then iterate (iter + 1)
    else begin
      (* Each committed entry was emitted by exactly one track, in DFS
         commit order. *)
      let entries = List.concat_map fst results in
      let tracks = List.map snd results in
      if Events.enabled () then begin
        Telemetry.set_gauge "sched.tracks"
          (float_of_int (List.length tracks));
        (* Distinct commits: a prefix shared by several tracks counts
           once. *)
        Telemetry.set_gauge "sched.commits"
          (float_of_int (List.length entries))
      end;
      Events.with_span ~cat:"sched" "sched.table.assemble" (fun () ->
          Table.assemble ~jobs ~ftcpg ~entries ~tracks)
    end
  in
  iterate 1
