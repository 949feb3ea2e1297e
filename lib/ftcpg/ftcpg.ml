module App = Ftes_app.App
module Graph = Ftes_app.Graph
module Policy = Ftes_app.Policy
module Fttime = Ftes_app.Fttime
module Transparency = Ftes_app.Transparency
module Wcet = Ftes_arch.Wcet
module Arch = Ftes_arch.Arch
module Bus = Ftes_arch.Bus

type kind =
  | Proc_copy of { pid : int; replica : int; attempt : int }
  | Msg_inst of { mid : int; replica : int }
  | Sync_proc of int
  | Sync_msg of int

type vertex = {
  vid : int;
  kind : kind;
  name : string;
  guard : Cond.guard;
  duration : float;
  conditional : bool;
  exec_node : int option;
  src_node : int option;
  on_bus : bool;
  msg_size : float;
  frozen : bool;
  preds : int list;
  succs : int list;
}

type t = {
  problem : Problem.t;
  vertices : vertex array;
  by_proc : int list array;  (* pid -> attempt vids, creation order *)
  by_msg : int list array;  (* mid -> message vids, creation order *)
}

exception Too_large of int

let vertex_cap = 50_000

(* Growable vertex accumulator; succs are patched in at the end. *)
type builder = {
  mutable rev : vertex list;
  mutable count : int;
}

let add_vertex b ~kind ~name ~guard ~duration ~conditional ~exec_node
    ~src_node ~on_bus ~msg_size ~frozen ~preds =
  if b.count >= vertex_cap then raise (Too_large vertex_cap);
  let vid = b.count in
  b.count <- vid + 1;
  b.rev <-
    {
      vid;
      kind;
      name;
      guard;
      duration;
      conditional;
      exec_node;
      src_node;
      on_bus;
      msg_size;
      frozen;
      preds;
      succs = [];
    }
    :: b.rev;
  vid

let build (problem : Problem.t) =
  Ftes_util.Events.with_span ~cat:"ftcpg" "ftcpg.build" @@ fun () ->
  let g = Problem.graph problem in
  let app = problem.Problem.app in
  let transparency = app.App.transparency in
  let k = problem.Problem.k in
  let bus = Arch.bus problem.Problem.arch in
  let mapping = problem.Problem.mapping in
  let nprocs = Graph.process_count g in
  let nmsgs = Graph.message_count g in
  let b = { rev = []; count = 0 } in
  let by_proc = Array.make nprocs [] in
  let by_msg = Array.make nmsgs [] in
  let copy_counter = Hashtbl.create 64 in
  let next_copy_no pid replica =
    let key = (pid, replica) in
    let n = try Hashtbl.find copy_counter key + 1 with Not_found -> 1 in
    Hashtbl.replace copy_counter key n;
    n
  in
  let msg_counter = Array.make nmsgs 0 in
  (* Alternatives a consumer can take its input from, per message:
     (vertex id, guard under which that vertex delivers the message). *)
  let msg_alts = Array.make nmsgs [] in
  let expand_process pid =
    let proc = Graph.process g pid in
    let policy = problem.Problem.policies.(pid) in
    let ncopies = Policy.replica_count policy in
    let frozen_p = Transparency.is_frozen_proc transparency pid in
    let in_edges = Graph.in_messages g pid in
    (* Input contexts: consistent combinations of one alternative per
       incoming message, within the fault budget. *)
    let raw_contexts =
      List.fold_left
        (fun combos mid ->
          List.concat_map
            (fun (preds, gd) ->
              List.filter_map
                (fun (alt_vid, alt_g) ->
                  match Cond.conjoin gd alt_g with
                  | Some gd' when Cond.fault_count gd' <= k ->
                      Some (alt_vid :: preds, gd')
                  | Some _ | None -> None)
                msg_alts.(mid))
            combos)
        [ ([], Cond.true_) ]
        in_edges
    in
    let contexts =
      if frozen_p && in_edges <> [] then begin
        (* The synchronization node hides which alternative arrived:
           downstream, the frozen process has a single, unconditional
           context (paper, Fig. 5b node P3^S). *)
        let all_alt_vids =
          List.concat_map (fun mid -> List.map fst msg_alts.(mid)) in_edges
        in
        let sync =
          add_vertex b ~kind:(Sync_proc pid)
            ~name:(proc.Graph.pname ^ "^S")
            ~guard:Cond.true_ ~duration:0. ~conditional:false ~exec_node:None
            ~src_node:None ~on_bus:false ~msg_size:0. ~frozen:true
            ~preds:all_alt_vids
        in
        [ ([ sync ], Cond.true_) ]
      end
      else raw_contexts
    in
    (* Expand each replica's attempt chain in each context. *)
    let outcomes = ref [] in
    for r = 0 to ncopies - 1 do
      let plan = policy.Policy.copies.(r) in
      let nid = Mapping.node_of mapping ~pid ~copy:r in
      let c = Wcet.get_exn problem.Problem.wcet ~pid ~nid in
      let o = proc.Graph.overheads in
      List.iter
        (fun (ctx_preds, gctx) ->
          let budget = k - Cond.fault_count gctx in
          let attempts = min plan.Policy.recoveries budget + 1 in
          let prev = ref None in
          let gcur = ref gctx in
          for a = 1 to attempts do
            let conditional = a < attempts in
            let duration =
              if a = 1 then
                Fttime.no_fault_length ~c o ~checkpoints:plan.Policy.checkpoints
              else
                let last = Cond.fault_count !gcur = k in
                Fttime.recovery_cost ~c o ~checkpoints:plan.Policy.checkpoints
                  ~last
            in
            let no = next_copy_no pid r in
            let name =
              if ncopies = 1 then Printf.sprintf "%s^%d" proc.Graph.pname no
              else Printf.sprintf "%s(%d)^%d" proc.Graph.pname (r + 1) no
            in
            let preds =
              match !prev with None -> ctx_preds | Some p -> [ p ]
            in
            let vid =
              add_vertex b
                ~kind:(Proc_copy { pid; replica = r; attempt = a })
                ~name ~guard:!gcur ~duration ~conditional ~exec_node:(Some nid)
                ~src_node:None ~on_bus:false ~msg_size:0. ~frozen:frozen_p
                ~preds
            in
            by_proc.(pid) <- vid :: by_proc.(pid);
            let success_guard =
              if conditional then
                Cond.add_exn !gcur { Cond.cond = vid; fault = false }
              else !gcur
            in
            outcomes := (r, vid, success_guard) :: !outcomes;
            if conditional then
              gcur := Cond.add_exn !gcur { Cond.cond = vid; fault = true };
            prev := Some vid
          done)
        contexts
    done;
    let outcomes = List.rev !outcomes in
    (* Expand each outgoing message. *)
    let expand_message mid =
      let m = Graph.message g mid in
      let frozen_m = Transparency.is_frozen_msg transparency mid in
      let dst_nodes = Mapping.copies mapping ~pid:m.Graph.dst in
      let crosses src = List.exists (fun dn -> dn <> src) dst_nodes in
      if frozen_m then begin
        (* One synchronized transmission, after the worst-case producer
           outcome (paper, Fig. 5b nodes m2^S, m3^S). *)
        let src_nodes = Mapping.copies mapping ~pid in
        let on_bus = m.Graph.size > 0. && List.exists crosses src_nodes in
        let duration = if on_bus then Bus.tx_time bus ~size:m.Graph.size else 0. in
        let sync =
          add_vertex b ~kind:(Sync_msg mid)
            ~name:(m.Graph.mname ^ "^S")
            ~guard:Cond.true_ ~duration ~conditional:false ~exec_node:None
            ~src_node:(Some (Mapping.node_of mapping ~pid ~copy:0))
            ~on_bus ~msg_size:m.Graph.size ~frozen:true
            ~preds:(List.map (fun (_, v, _) -> v) outcomes)
        in
        by_msg.(mid) <- sync :: by_msg.(mid);
        msg_alts.(mid) <- [ (sync, Cond.true_) ]
      end
      else begin
        let insts =
          List.map
            (fun (r, ovid, og) ->
              let sn = Mapping.node_of mapping ~pid ~copy:r in
              let on_bus = m.Graph.size > 0. && crosses sn in
              let duration =
                if on_bus then Bus.tx_time bus ~size:m.Graph.size else 0.
              in
              msg_counter.(mid) <- msg_counter.(mid) + 1;
              let name =
                Printf.sprintf "%s^%d" m.Graph.mname msg_counter.(mid)
              in
              let iv =
                add_vertex b
                  ~kind:(Msg_inst { mid; replica = r })
                  ~name ~guard:og ~duration ~conditional:false ~exec_node:None
                  ~src_node:(Some sn) ~on_bus ~msg_size:m.Graph.size
                  ~frozen:false ~preds:[ ovid ]
              in
              by_msg.(mid) <- iv :: by_msg.(mid);
              (iv, og))
            outcomes
        in
        if ncopies > 1 then begin
          (* Deterministic merge of the replica transmissions: consumers
             wait for all copies (active replication), so downstream no
             condition of this process is visible. *)
          let merge =
            add_vertex b ~kind:(Sync_msg mid)
              ~name:(m.Graph.mname ^ "^M")
              ~guard:Cond.true_ ~duration:0. ~conditional:false
              ~exec_node:None ~src_node:None ~on_bus:false
              ~msg_size:m.Graph.size ~frozen:false
              ~preds:(List.map fst insts)
          in
          by_msg.(mid) <- merge :: by_msg.(mid);
          msg_alts.(mid) <- [ (merge, Cond.true_) ]
        end
        else msg_alts.(mid) <- insts
      end
    in
    List.iter expand_message (Graph.out_messages g pid)
  in
  List.iter expand_process (Graph.topological_order g);
  let vertices = Array.of_list (List.rev b.rev) in
  (* Patch successor lists. *)
  let succs = Array.make (Array.length vertices) [] in
  Array.iter
    (fun v -> List.iter (fun p -> succs.(p) <- v.vid :: succs.(p)) v.preds)
    vertices;
  let vertices =
    Array.map (fun v -> { v with succs = List.rev succs.(v.vid) }) vertices
  in
  Ftes_util.Telemetry.set_gauge "ftcpg.vertices"
    (float_of_int (Array.length vertices));
  {
    problem;
    vertices;
    by_proc = Array.map List.rev by_proc;
    by_msg = Array.map List.rev by_msg;
  }

let problem t = t.problem
let vertex_count t = Array.length t.vertices

let vertex t vid =
  if vid < 0 || vid >= vertex_count t then invalid_arg "Ftcpg.vertex: bad id";
  t.vertices.(vid)

let vertices t = Array.copy t.vertices

let conditional_vertices t =
  Array.to_list t.vertices
  |> List.filter_map (fun v -> if v.conditional then Some v.vid else None)

let proc_copies t ~pid =
  if pid < 0 || pid >= Array.length t.by_proc then
    invalid_arg "Ftcpg.proc_copies: bad pid";
  t.by_proc.(pid)

let msg_vertices t ~mid =
  if mid < 0 || mid >= Array.length t.by_msg then
    invalid_arg "Ftcpg.msg_vertices: bad mid";
  t.by_msg.(mid)

let cond_name t vid = "F" ^ (vertex t vid).name

(* Scenario enumeration works directly on packed condition vectors: the
   DFS below mirrors the historical list-of-guards recursion (fault
   branch expanded before the no-fault branch), but each scenario is 31
   conditions per int word in one flat arena instead of a freshly
   allocated literal list. Exhaustive validation iterates the arena in
   place; [Condvec.guard_at] unpacks a single row. *)
type family = {
  funiverse : Condvec.universe;
  fguards : Condvec.guard array;
  fbudget : int;
}

(* The symbolic description of the scenario set: existence guards per
   condition field plus the fault budget — everything the explicit DFS
   below consumes, without materializing the arena. Existence guards
   only reference earlier conditions (vertex ids ascend along chains),
   which is what lets both the DFS and the symbolic backend decide
   presence from a prefix. *)
let scenario_family t =
  let cond_vids = Array.of_list (conditional_vertices t) in
  let u = Condvec.universe cond_vids in
  let guards =
    Array.map (fun vid -> Condvec.pack_guard u t.vertices.(vid).guard)
      cond_vids
  in
  { funiverse = u; fguards = guards; fbudget = t.problem.Problem.k }

let scenario_space t =
  let { funiverse = u; fguards = guards; fbudget = k } = scenario_family t in
  let s = Condvec.store u in
  let row = Condvec.create_row u in
  let n = Array.length guards in
  let rec go i faults =
    if i >= n then Condvec.append s row
    else if Condvec.row_implies row guards.(i) then begin
      (* Guards of frozen chains hide upstream faults, so the global
         budget k is enforced here rather than structurally. *)
      if faults < k then begin
        Condvec.set u row i true;
        go (i + 1) (faults + 1)
      end;
      Condvec.set u row i false;
      go (i + 1) faults;
      Condvec.unset u row i
    end
    else go (i + 1) faults
  in
  go 0 0;
  Condvec.freeze s

let scenario_count t = Condvec.count (scenario_space t)

let scenario_fault_count = Cond.fault_count

let exists_in t ~scenario vid = Cond.implies scenario (vertex t vid).guard

let pp_name t ppf vid = Format.pp_print_string ppf (vertex t vid).name

let pp_summary ppf t =
  let nconds = List.length (conditional_vertices t) in
  let nsync =
    Array.fold_left
      (fun acc v ->
        match v.kind with Sync_proc _ | Sync_msg _ -> acc + 1 | _ -> acc)
      0 t.vertices
  in
  Format.fprintf ppf "FT-CPG: %d vertices (%d conditional, %d sync), k=%d"
    (vertex_count t) nconds nsync t.problem.Problem.k

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@," pp_summary t;
  Array.iter
    (fun v ->
      Format.fprintf ppf "  %-10s guard=%-24s dur=%-7g %s%spreds=[%a]@,"
        v.name
        (Cond.to_string ~name:(cond_name t) v.guard)
        v.duration
        (if v.conditional then "cond " else "")
        (if v.frozen then "frozen " else "")
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (pp_name t))
        v.preds)
    t.vertices;
  Format.fprintf ppf "@]"
