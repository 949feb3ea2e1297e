(* The paper's conditional list-scheduling algorithm transcribed
   directly, kept as the digest oracle of
   [Ftes_sched.Conditional.schedule]. It rescans every vertex after each
   commit, copies the full timeline array per commit and explores the
   branches sequentially, so it reads straight against the
   specification (paper, Sec. 5.2). The tests in [test_sched] and
   [test_sched_digest] require the library's scheduler to produce the
   byte-identical table for every [jobs] value. It shares no placement
   code with the scheduler: it reserves on the persistent reference
   [Timeline] and [Busalloc] kept beside it in the tests, and assembles
   with the public [Table.make]. *)

module Cond = Ftes_ftcpg.Cond
module Ftcpg = Ftes_ftcpg.Ftcpg
module Problem = Ftes_ftcpg.Problem
module Graph = Ftes_app.Graph
module Arch = Ftes_arch.Arch
module Imap = Map.Make (Int)
module Conditional = Ftes_sched.Conditional
module Table = Ftes_sched.Table

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

type state = {
  r_guard : Cond.guard;
  r_faults : int;
  r_nodes : Timeline.t array;
  r_bus : Busalloc.t;
  r_finish : float Imap.t;  (* scheduled vertices -> finish time *)
  r_reveal : float Imap.t;  (* condition -> revelation time *)
  r_bcast : float Imap.t;  (* condition -> broadcast arrival *)
  r_pending : (float * int) Pqueue.t;
      (* unrevealed conditions, min-heap by revelation time. Branch
         states share physical queues only when at most one branch is
         still live: [commit] pushes in place (the parent state is dead
         once its successor exists) and a fork hands the fault branch a
         rebuilt queue while the no-fault branch keeps the original. *)
  r_entries : Table.entry list;  (* reversed *)
  r_makespan : float;
}

let schedule ftcpg =
  let problem = Ftcpg.problem ftcpg in
  let k = problem.Problem.k in
  let g = Problem.graph problem in
  let arch = problem.Problem.arch in
  let bus_spec = Arch.bus arch in
  let nnodes = Arch.node_count arch in
  let nverts = Ftcpg.vertex_count ftcpg in
  let pcp = priorities ftcpg in
  let vert = Ftcpg.vertex ftcpg in
  (* Frozen start times being fixed across iterations. *)
  let fixed : (int, float) Hashtbl.t = Hashtbl.create 16 in
  (* New or raised start demands observed during one exploration. *)
  let demands : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let demand vid t =
    let cur = try Hashtbl.find demands vid with Not_found -> neg_infinity in
    if t > cur then Hashtbl.replace demands vid t
  in
  let leaf_count = ref 0 in

  let literal_available st (l : Cond.literal) ~decision_node =
    let reveal =
      match Imap.find_opt l.Cond.cond st.r_reveal with
      | Some t -> t
      | None -> infinity (* not yet revealed: cannot commit *)
    in
    match decision_node with
    | None -> reveal
    | Some n -> (
        match (vert l.Cond.cond).Ftcpg.exec_node with
        | Some pn when pn = n -> reveal
        | Some _ | None -> (
            match Imap.find_opt l.Cond.cond st.r_bcast with
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

  let ready st (v : Ftcpg.vertex) =
    (not (Imap.mem v.Ftcpg.vid st.r_finish))
    && Cond.implies st.r_guard v.Ftcpg.guard
    && List.for_all
         (fun p ->
           Imap.mem p st.r_finish
           || not (Cond.compatible (vert p).Ftcpg.guard st.r_guard))
         v.Ftcpg.preds
  in

  let base_time st (v : Ftcpg.vertex) =
    let arrivals =
      List.fold_left
        (fun acc p ->
          match Imap.find_opt p st.r_finish with
          | Some f -> max acc f
          | None -> acc)
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
        (fun acc l -> max acc (literal_available st l ~decision_node:dn))
        0.
        (Cond.literals v.Ftcpg.guard)
    in
    max arrivals (max release knowledge)
  in

  (* Natural (ASAP) placement of a vertex from its base time. *)
  let natural_place st (v : Ftcpg.vertex) base =
    match v.Ftcpg.kind with
    | Ftcpg.Proc_copy _ ->
        let n = Option.get v.Ftcpg.exec_node in
        let s =
          Timeline.earliest_gap st.r_nodes.(n) ~from_:base
            ~duration:v.Ftcpg.duration
        in
        (s, s +. v.Ftcpg.duration, Table.Node n)
    | (Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _) when v.Ftcpg.on_bus ->
        let src = Option.get v.Ftcpg.src_node in
        let s, f =
          Busalloc.probe st.r_bus ~src ~size:v.Ftcpg.msg_size ~earliest:base
        in
        (s, f, Table.Bus)
    | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ ->
        (base, base, Table.Local)
  in

  (* Placement respecting a fixed (frozen) start when one exists.
     Returns the placement plus whether the pre-reserved window is
     already accounted for in the timelines. *)
  let place st (v : Ftcpg.vertex) =
    let base = base_time st v in
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
          let s, fin, r = natural_place st v base in
          demand v.Ftcpg.vid s;
          (s, fin, r, false)
        end
    | Some _ | None ->
        let s, fin, r = natural_place st v base in
        if v.Ftcpg.frozen then demand v.Ftcpg.vid s;
        (s, fin, r, false)
  in

  let commit st (v : Ftcpg.vertex) (start, fin, resource, prereserved) =
    let nodes = Array.copy st.r_nodes in
    let bus = ref st.r_bus in
    if not prereserved then begin
      match resource with
      | Table.Node n ->
          nodes.(n) <- Timeline.reserve nodes.(n) ~start ~finish:fin
      | Table.Bus ->
          let src = Option.get v.Ftcpg.src_node in
          bus := Busalloc.reserve_window st.r_bus ~src ~start ~finish:fin
      | Table.Local -> ()
    end;
    let entry =
      { Table.item = Table.Exec v.Ftcpg.vid; guard = st.r_guard; start;
        finish = fin; resource }
    in
    if v.Ftcpg.conditional then
      Pqueue.push st.r_pending (fin, v.Ftcpg.vid);
    let reveal =
      if v.Ftcpg.conditional then Imap.add v.Ftcpg.vid fin st.r_reveal
      else st.r_reveal
    in
    {
      st with
      r_nodes = nodes;
      r_bus = !bus;
      r_finish = Imap.add v.Ftcpg.vid fin st.r_finish;
      r_reveal = reveal;
      r_entries = entry :: st.r_entries;
      r_makespan = max st.r_makespan fin;
    }
  in

  let schedule_bcast st (tr, vc) =
    if nnodes <= 1 then { st with r_bcast = Imap.add vc tr st.r_bcast }
    else
      let src =
        match (vert vc).Ftcpg.exec_node with
        | Some n -> n
        | None -> 0
      in
      let bus, (s, f) =
        Busalloc.place st.r_bus ~src ~size:Conditional.cond_size ~earliest:tr
      in
      let entry =
        { Table.item = Table.Bcast vc; guard = st.r_guard; start = s;
          finish = f; resource = Table.Bus }
      in
      {
        st with
        r_bus = bus;
        r_bcast = Imap.add vc f st.r_bcast;
        r_entries = entry :: st.r_entries;
      }
  in

  let rec run st =
    let next_reveal =
      match Pqueue.peek st.r_pending with
      | None -> infinity
      | Some (t, _) -> t
    in
    (* Candidates placeable before the next revelation. *)
    let best = ref None in
    for vid = 0 to nverts - 1 do
      let v = vert vid in
      if ready st v then begin
        let ((s, _, _, _) as placement) = place st v in
        if s < next_reveal -. eps then
          let better =
            match !best with
            | None -> true
            | Some (s', v', _) ->
                s < s' -. eps
                || (Float.abs (s -. s') <= eps
                   && pcp.(v.Ftcpg.vid) > pcp.(v'.Ftcpg.vid))
          in
          if better then best := Some (s, v, placement)
      end
    done;
    match !best with
    | Some (_, v, placement) -> run (commit st v placement)
    | None -> (
        match Pqueue.peek st.r_pending with
        | Some (tr, vc) ->
            let st = schedule_bcast st (tr, vc) in
            ignore (Pqueue.pop st.r_pending);
            let branch_nf =
              {
                st with
                r_guard =
                  Cond.add_exn st.r_guard { Cond.cond = vc; fault = false };
              }
            in
            let results_f =
              if st.r_faults < k then
                run
                  {
                    st with
                    r_guard =
                      Cond.add_exn st.r_guard { Cond.cond = vc; fault = true };
                    r_faults = st.r_faults + 1;
                    r_pending =
                      Pqueue.of_list ~cmp:compare
                        (Pqueue.to_sorted_list st.r_pending);
                  }
              else []
            in
            results_f @ run branch_nf
        | None ->
            (* Leaf: every vertex reachable in this scenario must be done. *)
            for vid = 0 to nverts - 1 do
              let v = vert vid in
              if
                Cond.implies st.r_guard v.Ftcpg.guard
                && not (Imap.mem vid st.r_finish)
              then
                raise
                  (Conditional.Blocked
                     (Printf.sprintf "vertex %s never activated in scenario %s"
                        v.Ftcpg.name
                        (Cond.to_string ~name:(Ftcpg.cond_name ftcpg)
                           st.r_guard)))
            done;
            incr leaf_count;
            if !leaf_count > Conditional.track_cap then
              raise (Conditional.Too_many_tracks Conditional.track_cap);
            [
              ( st.r_entries,
                { Table.scenario = st.r_guard; makespan = st.r_makespan } );
            ])
  in

  let initial_state () =
    let nodes = Array.make nnodes Timeline.empty in
    let bus = ref (Busalloc.create bus_spec ~nodes:nnodes) in
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
        match v.Ftcpg.kind with
        | Ftcpg.Proc_copy _ ->
            let n = Option.get v.Ftcpg.exec_node in
            let s =
              Timeline.earliest_gap nodes.(n) ~from_:f
                ~duration:v.Ftcpg.duration
            in
            if s > f +. eps then Hashtbl.replace fixed vid s;
            nodes.(n) <-
              Timeline.reserve nodes.(n) ~start:s
                ~finish:(s +. v.Ftcpg.duration)
        | (Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _) when v.Ftcpg.on_bus ->
            let src = match v.Ftcpg.src_node with Some n -> n | None -> 0 in
            let s, fin =
              Busalloc.probe !bus ~src ~size:v.Ftcpg.msg_size ~earliest:f
            in
            if s > f +. eps then Hashtbl.replace fixed vid s;
            bus := Busalloc.reserve_window !bus ~src ~start:s ~finish:fin
        | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ -> ())
      fixed_sorted;
    {
      r_guard = Cond.true_;
      r_faults = 0;
      r_nodes = nodes;
      r_bus = !bus;
      r_finish = Imap.empty;
      r_reveal = Imap.empty;
      r_bcast = Imap.empty;
      r_pending = Pqueue.create ~cmp:compare;
      r_entries = [];
      r_makespan = 0.;
    }
  in

  let rec iterate iter =
    if iter > Conditional.fix_iter_cap then
      raise (Conditional.Fixpoint_diverged Conditional.fix_iter_cap);
    Hashtbl.reset demands;
    leaf_count := 0;
    let results = run (initial_state ()) in
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
      let entries = List.concat_map (fun (es, _) -> List.rev es) results in
      let tracks = List.map snd results in
      Table.make ~ftcpg ~entries ~tracks
    end
  in
  iterate 1
