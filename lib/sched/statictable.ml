(* Static (transparent) schedule tables. See statictable.mli. *)

module Cond = Ftes_ftcpg.Cond
module Ftcpg = Ftes_ftcpg.Ftcpg
module Problem = Ftes_ftcpg.Problem
module Graph = Ftes_app.Graph
module Arch = Ftes_arch.Arch
module Events = Ftes_util.Events

exception Not_transparent of string

let schedule ftcpg =
  Events.with_span ~cat:"sched" "sched.static" @@ fun () ->
  let problem = Ftcpg.problem ftcpg in
  let g = Problem.graph problem in
  let arch = problem.Problem.arch in
  let nnodes = Arch.node_count arch in
  let nverts = Ftcpg.vertex_count ftcpg in
  let vert = Ftcpg.vertex ftcpg in
  Array.iter
    (fun (v : Ftcpg.vertex) ->
      if not v.Ftcpg.frozen then
        raise
          (Not_transparent
             (Printf.sprintf "vertex %s is not frozen" v.Ftcpg.name)))
    (Ftcpg.vertices ftcpg);
  (* Kahn topological order with ascending-vid tie-break: deterministic
     and independent of whether vertex ids happen to be topologically
     sorted already. *)
  let order =
    let indeg = Array.make nverts 0 in
    for vid = 0 to nverts - 1 do
      indeg.(vid) <- List.length (vert vid).Ftcpg.preds
    done;
    let ready = ref [] in
    for vid = nverts - 1 downto 0 do
      if indeg.(vid) = 0 then ready := vid :: !ready
    done;
    let out = Array.make nverts 0 in
    let filled = ref 0 in
    let rec drain () =
      match !ready with
      | [] -> ()
      | vid :: rest ->
          ready := rest;
          out.(!filled) <- vid;
          incr filled;
          let newly =
            List.filter
              (fun s ->
                indeg.(s) <- indeg.(s) - 1;
                indeg.(s) = 0)
              (vert vid).Ftcpg.succs
          in
          ready := List.merge compare (List.sort compare newly) !ready;
          drain ()
    in
    drain ();
    if !filled < nverts then
      raise (Not_transparent "FT-CPG precedence graph has a cycle");
    out
  in
  let view = Lane.view (Arch.bus arch) ~nodes:nnodes in
  let node_lanes = Array.init nnodes (fun _ -> Lane.create ()) in
  let bus_lanes = Lane.bus_lanes view in
  let place_on_bus ~src ~size ~earliest =
    let lane = bus_lanes.(Lane.bus_lane view ~src) in
    let s, f = Lane.bus_window lane view ~src ~size ~earliest in
    ignore (Lane.reserve lane ~start:s ~finish:f);
    (s, f)
  in
  let finish = Array.make nverts 0. in
  let entries = ref [] in
  let makespan = ref 0. in
  let emit item start fin resource =
    entries :=
      { Table.item; guard = Cond.true_; start; finish = fin; resource }
      :: !entries
  in
  Array.iter
    (fun vid ->
      let v = vert vid in
      let est =
        List.fold_left (fun acc p -> max acc finish.(p)) 0. v.Ftcpg.preds
      in
      let est =
        match v.Ftcpg.kind with
        | Ftcpg.Proc_copy { pid; _ } ->
            max est (Graph.process g pid).Graph.release
        | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ -> est
      in
      let s, f =
        match v.Ftcpg.kind with
        | Ftcpg.Proc_copy _ ->
            let n = Option.get v.Ftcpg.exec_node in
            let s =
              Lane.earliest_gap node_lanes.(n) ~from_:est
                ~duration:v.Ftcpg.duration
            in
            let f = s +. v.Ftcpg.duration in
            ignore (Lane.reserve node_lanes.(n) ~start:s ~finish:f);
            emit (Table.Exec vid) s f (Table.Node n);
            (s, f)
        | (Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _) when v.Ftcpg.on_bus ->
            let src = Option.value v.Ftcpg.src_node ~default:0 in
            let s, f = place_on_bus ~src ~size:v.Ftcpg.msg_size ~earliest:est in
            emit (Table.Exec vid) s f Table.Bus;
            (s, f)
        | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ ->
            emit (Table.Exec vid) est est Table.Local;
            (est, est)
      in
      ignore s;
      finish.(vid) <- f;
      if f > !makespan then makespan := f;
      (* Every revealed condition is broadcast on the bus so remote
         nodes learn it — mirrors the conditional scheduler's
         [schedule_bcast], though in a transparent schedule nothing
         downstream waits for it. *)
      if v.Ftcpg.conditional && nnodes > 1 then begin
        let src = Option.value v.Ftcpg.exec_node ~default:0 in
        let bs, bf =
          place_on_bus ~src ~size:Conditional.cond_size ~earliest:f
        in
        emit (Table.Bcast vid) bs bf Table.Bus
      end)
    order;
  Table.make ~ftcpg
    ~entries:(List.rev !entries)
    ~tracks:[ { Table.scenario = Cond.true_; makespan = !makespan } ]
