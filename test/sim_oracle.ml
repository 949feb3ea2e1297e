(* The list-walking reference simulator and explicit validator, kept
   as the cross-check oracles of [Ftes_sim.Sim]. [run] replays one
   scenario by scanning the table's entry list for every vertex, and
   [validate] runs it on every complete scenario enumerated as a guard
   list, then the transparency check. Neither touches the packed
   scenario arena, the compiled table or the scenario telemetry
   counters. The equivalence tests in [test_sim], [test_sim_packed] and
   [test_symbolic] require the library's replays to agree with them. *)

module Cond = Ftes_ftcpg.Cond
module Ftcpg = Ftes_ftcpg.Ftcpg
module Problem = Ftes_ftcpg.Problem
module Table = Ftes_sched.Table
module Graph = Ftes_app.Graph
module App = Ftes_app.App
module Arch = Ftes_arch.Arch
module Bus = Ftes_arch.Bus
module Sim = Ftes_sim.Sim
module Violation = Ftes_sim.Violation

let eps = 1e-6

let entries_of_item (table : Table.t) item =
  List.filter (fun (e : Table.entry) -> e.Table.item = item) table.Table.entries

(* The run-time scheduler on each node activates an item according to
   the most specific table column whose guard currently holds. *)
let applicable_entry table ~scenario item =
  let candidates =
    List.filter
      (fun (e : Table.entry) -> Cond.implies scenario e.Table.guard)
      (entries_of_item table item)
  in
  match candidates with
  | [] -> None
  | _ ->
      let best =
        List.fold_left
          (fun acc (e : Table.entry) ->
            match acc with
            | None -> Some e
            | Some b ->
                if Cond.size e.Table.guard > Cond.size b.Table.guard then
                  Some e
                else acc)
          None candidates
      in
      best

let run table ~scenario =
  let ftcpg = table.Table.ftcpg in
  let problem = Ftcpg.problem ftcpg in
  let app = problem.Problem.app in
  let g = app.App.graph in
  let violations = ref [] in
  let events = ref [] in
  (* The rendered scenario only appears in violation records — don't pay
     for it on the (hot, overwhelmingly common) clean replays. *)
  let sname = lazy (Cond.to_string ~name:(Ftcpg.cond_name ftcpg) scenario) in
  let fail kind =
    violations :=
      Violation.make ~scenario ~scenario_label:(Lazy.force sname) kind
      :: !violations
  in
  let trace time fmt =
    Format.kasprintf
      (fun what -> events := { Sim.time; what } :: !events)
      fmt
  in
  (* Select the activation of every vertex existing in this scenario. *)
  let n = Ftcpg.vertex_count ftcpg in
  let chosen : Table.entry option array = Array.make n None in
  for vid = 0 to n - 1 do
    let v = Ftcpg.vertex ftcpg vid in
    if Cond.implies scenario v.Ftcpg.guard then begin
      match applicable_entry table ~scenario (Table.Exec vid) with
      | None ->
          fail (Violation.Missing_activation { vid; vertex = v.Ftcpg.name })
      | Some e ->
          (* Ambiguity: another maximally specific column with a
             different start would leave the run-time scheduler with two
             contradictory activation times. *)
          List.iter
            (fun (e' : Table.entry) ->
              if
                Cond.implies scenario e'.Table.guard
                && Cond.size e'.Table.guard = Cond.size e.Table.guard
                && Float.abs (e'.Table.start -. e.Table.start) > eps
              then
                fail
                  (Violation.Ambiguous_activation
                     {
                       vid;
                       vertex = v.Ftcpg.name;
                       start = e.Table.start;
                       alt_start = e'.Table.start;
                     }))
            (entries_of_item table (Table.Exec vid));
          chosen.(vid) <- Some e;
          trace e.Table.start "start %s (until %g)" v.Ftcpg.name e.Table.finish
    end
  done;
  (* Broadcast arrival of each condition revealed in this scenario. *)
  let bcast_finish = Hashtbl.create 16 in
  let nnodes = Arch.node_count problem.Problem.arch in
  for vid = 0 to n - 1 do
    let v = Ftcpg.vertex ftcpg vid in
    if v.Ftcpg.conditional && Cond.implies scenario v.Ftcpg.guard then begin
      match chosen.(vid) with
      | None -> ()
      | Some e ->
          if nnodes <= 1 then Hashtbl.replace bcast_finish vid e.Table.finish
          else begin
            match applicable_entry table ~scenario (Table.Bcast vid) with
            | None ->
                fail
                  (Violation.Never_broadcast
                     { vid; cond = Ftcpg.cond_name ftcpg vid })
            | Some b ->
                (* Mirror of the execution-column ambiguity check: two
                   maximally specific broadcast columns with different
                   times contradict each other at run time. *)
                List.iter
                  (fun (b' : Table.entry) ->
                    if
                      Cond.implies scenario b'.Table.guard
                      && Cond.size b'.Table.guard = Cond.size b.Table.guard
                      && Float.abs (b'.Table.start -. b.Table.start) > eps
                    then
                      fail
                        (Violation.Ambiguous_broadcast
                           {
                             vid;
                             cond = Ftcpg.cond_name ftcpg vid;
                             start = b.Table.start;
                             alt_start = b'.Table.start;
                           }))
                  (entries_of_item table (Table.Bcast vid));
                if b.Table.start < e.Table.finish -. eps then
                  fail
                    (Violation.Broadcast_before_produced
                       {
                         vid;
                         cond = Ftcpg.cond_name ftcpg vid;
                         bcast_start = b.Table.start;
                         produced = e.Table.finish;
                       });
                Hashtbl.replace bcast_finish vid b.Table.finish;
                trace b.Table.start "broadcast %s" (Ftcpg.cond_name ftcpg vid)
          end
    end
  done;
  (* Causality + distributed knowledge. *)
  for vid = 0 to n - 1 do
    match chosen.(vid) with
    | None -> ()
    | Some e ->
        let v = Ftcpg.vertex ftcpg vid in
        List.iter
          (fun p ->
            match chosen.(p) with
            | Some pe ->
                if e.Table.start < pe.Table.finish -. eps then
                  fail
                    (Violation.Causality
                       {
                         vid;
                         vertex = v.Ftcpg.name;
                         start = e.Table.start;
                         pred = p;
                         pred_name = (Ftcpg.vertex ftcpg p).Ftcpg.name;
                         pred_finish = pe.Table.finish;
                       })
            | None -> ())
          v.Ftcpg.preds;
        let decision_node =
          match v.Ftcpg.kind with
          | Ftcpg.Proc_copy _ -> v.Ftcpg.exec_node
          | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ ->
              if v.Ftcpg.on_bus then v.Ftcpg.src_node else None
          | Ftcpg.Sync_proc _ -> None
        in
        List.iter
          (fun (l : Cond.literal) ->
            match decision_node with
            | None -> ()
            | Some dn -> (
                match (Ftcpg.vertex ftcpg l.Cond.cond).Ftcpg.exec_node with
                | Some pn when pn = dn -> ()
                | Some _ | None -> (
                    match Hashtbl.find_opt bcast_finish l.Cond.cond with
                    | Some bf ->
                        if e.Table.start < bf -. eps then
                          fail
                            (Violation.Distributed_knowledge
                               {
                                 vid;
                                 vertex = v.Ftcpg.name;
                                 start = e.Table.start;
                                 cond_vid = l.Cond.cond;
                                 cond = Ftcpg.cond_name ftcpg l.Cond.cond;
                                 learned = bf;
                               })
                    | None -> ())))
          (Cond.literals v.Ftcpg.guard);
        (* Release times. *)
        (match v.Ftcpg.kind with
        | Ftcpg.Proc_copy { pid; _ } ->
            let r = (Graph.process g pid).Graph.release in
            if e.Table.start < r -. eps then
              fail
                (Violation.Release
                   {
                     vid;
                     vertex = v.Ftcpg.name;
                     start = e.Table.start;
                     release = r;
                   })
        | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ -> ())
  done;
  (* Resource exclusivity. *)
  let active =
    List.filter_map
      (fun vid ->
        match chosen.(vid) with
        | Some e when e.Table.finish -. e.Table.start > eps -> Some (vid, e)
        | Some _ | None -> None)
      (List.init n (fun i -> i))
  in
  let overlap (a : Table.entry) (b : Table.entry) =
    a.Table.start < b.Table.finish -. eps
    && b.Table.start < a.Table.finish -. eps
  in
  let lane_of vid (e : Table.entry) =
    match e.Table.resource with
    | Table.Node nid -> Some (`Cpu nid)
    | Table.Bus ->
        let v = Ftcpg.vertex ftcpg vid in
        if Bus.is_tdma (Arch.bus problem.Problem.arch) then
          Some (`Bus (Option.value v.Ftcpg.src_node ~default:0))
        else Some (`Bus (-1))
    | Table.Local -> None
  in
  let rec pairs = function
    | [] -> ()
    | (vid, e) :: rest ->
        List.iter
          (fun (vid', e') ->
            match (lane_of vid e, lane_of vid' e') with
            | Some l, Some l' when l = l' && overlap e e' ->
                fail
                  (Violation.Resource_overlap
                     {
                       vid;
                       vertex = (Ftcpg.vertex ftcpg vid).Ftcpg.name;
                       other_vid = vid';
                       other = (Ftcpg.vertex ftcpg vid').Ftcpg.name;
                     })
            | _ -> ())
          rest;
        pairs rest
  in
  pairs active;
  (* Deadlines. *)
  let makespan =
    Array.fold_left
      (fun acc e ->
        match e with Some e -> max acc e.Table.finish | None -> acc)
      0. chosen
  in
  if makespan > app.App.deadline +. eps then
    fail
      (Violation.Deadline_missed
         { deadline = app.App.deadline; completion = makespan });
  Array.iter
    (fun (p : Graph.process) ->
      match p.Graph.local_deadline with
      | None -> ()
      | Some d ->
          let completion =
            List.fold_left
              (fun acc vid ->
                match chosen.(vid) with
                | Some e -> max acc e.Table.finish
                | None -> acc)
              0.
              (Ftcpg.proc_copies ftcpg ~pid:p.Graph.pid)
          in
          if completion > d +. eps then
            fail
              (Violation.Local_deadline_missed
                 {
                   pid = p.Graph.pid;
                   process = p.Graph.pname;
                   deadline = d;
                   completion;
                 }))
    (Graph.processes g);
  {
    Sim.scenario;
    makespan;
    events = List.sort (fun a b -> compare a.Sim.time b.Sim.time) !events;
    violations = List.rev !violations;
  }

(* All complete fault scenarios: every conditional vertex the guard
   reaches gets an outcome, at most [k] of them faults. Depth-first in
   ascending vertex id, fault branch first — the row order of
   [Ftcpg.scenario_space]. *)
let scenarios f =
  let k = (Ftcpg.problem f).Problem.k in
  let rec go g faults = function
    | [] -> [ g ]
    | c :: rest when Cond.implies g (Ftcpg.vertex f c).Ftcpg.guard ->
        let branch fault = Cond.add_exn g { Cond.cond = c; fault } in
        (if faults < k then go (branch true) (faults + 1) rest else [])
        @ go (branch false) faults rest
    | _ :: rest -> go g faults rest
  in
  go Cond.true_ 0 (Ftcpg.conditional_vertices f)

let validate ?jobs (table : Table.t) =
  List.concat
    (Ftes_util.Par.map ?jobs
       (fun s -> (run table ~scenario:s).Sim.violations)
       (scenarios table.Table.ftcpg))
  @ Sim.frozen_start_violations table

(* Greedy literal-dropping shrink over [run], the reference for
   [Ftes_sim.Diagnose.shrink]: same candidate order, fault literals
   first. *)
let shrink table ~scenario =
  let fails g = (run table ~scenario:g).Sim.violations <> [] in
  let drop_one g =
    let lits = Cond.literals g in
    List.find_map
      (fun (l : Cond.literal) ->
        match Cond.of_literals (List.filter (fun l' -> l' <> l) lits) with
        | Some g' when fails g' -> Some g'
        | Some _ | None -> None)
      (List.filter (fun (l : Cond.literal) -> l.Cond.fault) lits
      @ List.filter (fun (l : Cond.literal) -> not l.Cond.fault) lits)
  in
  let rec fix g = match drop_one g with Some g' -> fix g' | None -> g in
  if fails scenario then fix scenario else scenario
