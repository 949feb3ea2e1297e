(* The compiled form of a schedule table shared by the explicit
   (arena-replay) and symbolic (cube-replay) validation backends, and
   the one single-scenario replay behind [Sim.run] and
   [Diagnose.shrink]. See compiled.mli for the representation story;
   the checks and their emission order in [replay_one] mirror the
   reference simulator [Sim_oracle.run] exactly, so the violation list
   (values, order, rendered messages) is byte-identical to one
   [Sim_oracle.run] per scenario — the composition the tests keep as
   their oracle ([Sim_oracle.validate]). *)

module Cond = Ftes_ftcpg.Cond
module Condvec = Ftes_ftcpg.Condvec
module Ftcpg = Ftes_ftcpg.Ftcpg
module Problem = Ftes_ftcpg.Problem
module Table = Ftes_sched.Table
module Graph = Ftes_app.Graph
module App = Ftes_app.App
module Arch = Ftes_arch.Arch
module Bus = Ftes_arch.Bus
module Telemetry = Ftes_util.Telemetry
module Events = Ftes_util.Events

let c_scenarios = Telemetry.counter "sim.scenarios"
let c_violations = Telemetry.counter "sim.violations"
let eps = 1e-6

let scenario_name ftcpg scenario =
  Cond.to_string ~name:(Ftcpg.cond_name ftcpg) scenario

let no_lane = min_int

type centry = {
  c_guard : Condvec.guard;
  c_size : int;  (* [Cond.size] of the column guard: specificity *)
  c_start : float;
  c_finish : float;
  c_lane : int;  (* exclusivity lane; [no_lane] for local items *)
}

type t = {
  cftcpg : Ftcpg.t;
  nverts : int;
  nnodes : int;
  deadline : float;
  exec : centry array array;  (* vid -> activation columns, table order *)
  bcast : centry array array;  (* vid -> broadcast columns, table order *)
  vguard : Condvec.guard array;
  vconditional : bool array;
  vname : string array;
  vcond_name : string array;
  vpreds : int array array;
  vknow : int array array;
      (* conditions of the vertex guard whose broadcast the activation
         must await (guard tests a condition produced on another node) *)
  vrelease : float array;  (* nan when the vertex has no release time *)
  locals : (int * string * float * int array) array;
      (* (pid, name, local deadline, copies) in process-array order *)
}

let compile (table : Table.t) (u : Condvec.universe) =
  let ftcpg = table.Table.ftcpg in
  let problem = Ftcpg.problem ftcpg in
  let app = problem.Problem.app in
  let g = app.App.graph in
  let n = Ftcpg.vertex_count ftcpg in
  let tdma = Bus.is_tdma (Arch.bus problem.Problem.arch) in
  (* Lane encoding preserving the distinctions of the reference
     simulator's lane_of:
     CPUs on even ids, TDMA bus lanes (per sending node) on odd ids,
     the single non-TDMA bus lane on -1. *)
  let lane_of vid (e : Table.entry) =
    match e.Table.resource with
    | Table.Node nid -> 2 * nid
    | Table.Bus ->
        if tdma then
          (2
          * Option.value (Ftcpg.vertex ftcpg vid).Ftcpg.src_node ~default:0)
          + 1
        else -1
    | Table.Local -> no_lane
  in
  let pack vid (e : Table.entry) =
    {
      c_guard = Condvec.pack_guard u e.Table.guard;
      c_size = Cond.size e.Table.guard;
      c_start = e.Table.start;
      c_finish = e.Table.finish;
      c_lane = lane_of vid e;
    }
  in
  (* Group the entry list by item in one pass, keeping table order per
     item, which the selection and ambiguity checks below depend on. *)
  let exec_rev = Array.make n [] in
  let bcast_rev = Array.make n [] in
  List.iter
    (fun (e : Table.entry) ->
      match e.Table.item with
      | Table.Exec vid -> exec_rev.(vid) <- pack vid e :: exec_rev.(vid)
      | Table.Bcast vid -> bcast_rev.(vid) <- pack vid e :: bcast_rev.(vid))
    table.Table.entries;
  let of_rev l = Array.of_list (List.rev l) in
  let vguard = Array.make n (Condvec.guard_true u) in
  let vconditional = Array.make n false in
  let vname = Array.make n "" in
  let vcond_name = Array.make n "" in
  let vpreds = Array.make n [||] in
  let vknow = Array.make n [||] in
  let vrelease = Array.make n Float.nan in
  for vid = 0 to n - 1 do
    let v = Ftcpg.vertex ftcpg vid in
    vguard.(vid) <- Condvec.pack_guard u v.Ftcpg.guard;
    vconditional.(vid) <- v.Ftcpg.conditional;
    vname.(vid) <- v.Ftcpg.name;
    vcond_name.(vid) <- Ftcpg.cond_name ftcpg vid;
    vpreds.(vid) <- Array.of_list v.Ftcpg.preds;
    (let decision_node =
       match v.Ftcpg.kind with
       | Ftcpg.Proc_copy _ -> v.Ftcpg.exec_node
       | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ ->
           if v.Ftcpg.on_bus then v.Ftcpg.src_node else None
       | Ftcpg.Sync_proc _ -> None
     in
     match decision_node with
     | None -> ()
     | Some dn ->
         vknow.(vid) <-
           Array.of_list
             (List.filter_map
                (fun (l : Cond.literal) ->
                  match (Ftcpg.vertex ftcpg l.Cond.cond).Ftcpg.exec_node with
                  | Some pn when pn = dn -> None
                  | Some _ | None -> Some l.Cond.cond)
                (Cond.literals v.Ftcpg.guard)));
    match v.Ftcpg.kind with
    | Ftcpg.Proc_copy { pid; _ } ->
        vrelease.(vid) <- (Graph.process g pid).Graph.release
    | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ -> ()
  done;
  let locals =
    Array.to_list (Graph.processes g)
    |> List.filter_map (fun (p : Graph.process) ->
           match p.Graph.local_deadline with
           | None -> None
           | Some d ->
               Some
                 ( p.Graph.pid,
                   p.Graph.pname,
                   d,
                   Array.of_list (Ftcpg.proc_copies ftcpg ~pid:p.Graph.pid) ))
    |> Array.of_list
  in
  {
    cftcpg = ftcpg;
    nverts = n;
    nnodes = Arch.node_count problem.Problem.arch;
    deadline = app.App.deadline;
    exec = Array.map of_rev exec_rev;
    bcast = Array.map of_rev bcast_rev;
    vguard;
    vconditional;
    vname;
    vcond_name;
    vpreds;
    vknow;
    vrelease;
    locals;
  }

(* Per-worker scratch, reused across every scenario of a range. After a
   replay it holds the columns that replay chose. *)
type scratch = {
  s_chosen : int array;  (* vid -> column index in exec.(vid); -1 none *)
  s_bchosen : int array;  (* vid -> column index in bcast.(vid); -1 none *)
  s_active : int array;  (* vids with nonzero-duration activations *)
  s_makespan : float array;  (* one cell, unboxed: latest chosen finish *)
}

let make_scratch c =
  {
    s_chosen = Array.make c.nverts (-1);
    s_bchosen = Array.make c.nverts (-1);
    s_active = Array.make (max 1 c.nverts) 0;
    s_makespan = [| 0. |];
  }

let chosen_exec c scr vid =
  let j = scr.s_chosen.(vid) in
  if j < 0 then None else Some c.exec.(vid).(j)

let chosen_bcast c scr vid =
  let j = scr.s_bchosen.(vid) in
  if j < 0 then None else Some c.bcast.(vid).(j)

let makespan scr = scr.s_makespan.(0)

let replay_one c sp i scr =
  let n = c.nverts in
  let violations = ref [] in
  (* The unpacked guard and its rendering only appear in violation
     records — keep the clean replay allocation-free. *)
  let sguard = ref None in
  let slabel = ref None in
  let scenario () =
    match !sguard with
    | Some g -> g
    | None ->
        let g = Condvec.guard_at sp i in
        sguard := Some g;
        g
  in
  let label () =
    match !slabel with
    | Some s -> s
    | None ->
        let s = scenario_name c.cftcpg (scenario ()) in
        slabel := Some s;
        s
  in
  let fail kind =
    let s = scenario () in
    violations :=
      Violation.make ~scenario:s ~scenario_label:(label ()) kind :: !violations
  in
  (* Activation selection: most specific applicable column; first one
     in table order wins ties, any equally specific column with a
     different time is an ambiguity. *)
  let chosen = scr.s_chosen in
  Array.fill chosen 0 n (-1);
  for vid = 0 to n - 1 do
    if Condvec.implies sp i c.vguard.(vid) then begin
      let cols = c.exec.(vid) in
      let best = ref (-1) in
      let best_size = ref (-1) in
      for j = 0 to Array.length cols - 1 do
        let e = cols.(j) in
        if e.c_size > !best_size && Condvec.implies sp i e.c_guard then begin
          best := j;
          best_size := e.c_size
        end
      done;
      if !best < 0 then
        fail (Violation.Missing_activation { vid; vertex = c.vname.(vid) })
      else begin
        let e = cols.(!best) in
        for j = 0 to Array.length cols - 1 do
          let e' = cols.(j) in
          if
            e'.c_size = e.c_size
            && Float.abs (e'.c_start -. e.c_start) > eps
            && Condvec.implies sp i e'.c_guard
          then
            fail
              (Violation.Ambiguous_activation
                 {
                   vid;
                   vertex = c.vname.(vid);
                   start = e.c_start;
                   alt_start = e'.c_start;
                 })
        done;
        chosen.(vid) <- !best
      end
    end
  done;
  (* Broadcast column of each condition revealed in this scenario; a
     single node broadcasts nothing. *)
  let bchosen = scr.s_bchosen in
  Array.fill bchosen 0 n (-1);
  for vid = 0 to n - 1 do
    if c.nnodes > 1 && c.vconditional.(vid) && chosen.(vid) >= 0 then begin
      let e = c.exec.(vid).(chosen.(vid)) in
      let cols = c.bcast.(vid) in
      let best = ref (-1) in
      let best_size = ref (-1) in
      for j = 0 to Array.length cols - 1 do
        let b = cols.(j) in
        if b.c_size > !best_size && Condvec.implies sp i b.c_guard then begin
          best := j;
          best_size := b.c_size
        end
      done;
      if !best < 0 then
        fail (Violation.Never_broadcast { vid; cond = c.vcond_name.(vid) })
      else begin
        let b = cols.(!best) in
        for j = 0 to Array.length cols - 1 do
          let b' = cols.(j) in
          if
            b'.c_size = b.c_size
            && Float.abs (b'.c_start -. b.c_start) > eps
            && Condvec.implies sp i b'.c_guard
          then
            fail
              (Violation.Ambiguous_broadcast
                 {
                   vid;
                   cond = c.vcond_name.(vid);
                   start = b.c_start;
                   alt_start = b'.c_start;
                 })
        done;
        if b.c_start < e.c_finish -. eps then
          fail
            (Violation.Broadcast_before_produced
               {
                 vid;
                 cond = c.vcond_name.(vid);
                 bcast_start = b.c_start;
                 produced = e.c_finish;
               });
        bchosen.(vid) <- !best
      end
    end
  done;
  (* Causality, distributed knowledge, release times. *)
  for vid = 0 to n - 1 do
    if chosen.(vid) >= 0 then begin
      let e = c.exec.(vid).(chosen.(vid)) in
      let preds = c.vpreds.(vid) in
      for pi = 0 to Array.length preds - 1 do
        let p = preds.(pi) in
        if chosen.(p) >= 0 then begin
          let pe = c.exec.(p).(chosen.(p)) in
          if e.c_start < pe.c_finish -. eps then
            fail
              (Violation.Causality
                 {
                   vid;
                   vertex = c.vname.(vid);
                   start = e.c_start;
                   pred = p;
                   pred_name = c.vname.(p);
                   pred_finish = pe.c_finish;
                 })
        end
      done;
      let know = c.vknow.(vid) in
      for li = 0 to Array.length know - 1 do
        let cv = know.(li) in
        (* [cv] was produced on another node, so the architecture has
           several and the condition is learned from its broadcast. *)
        let bj = bchosen.(cv) in
        if bj >= 0 && e.c_start < c.bcast.(cv).(bj).c_finish -. eps then
          fail
            (Violation.Distributed_knowledge
               {
                 vid;
                 vertex = c.vname.(vid);
                 start = e.c_start;
                 cond_vid = cv;
                 cond = c.vcond_name.(cv);
                 learned = c.bcast.(cv).(bj).c_finish;
               })
      done;
      let r = c.vrelease.(vid) in
      if (not (Float.is_nan r)) && e.c_start < r -. eps then
        fail
          (Violation.Release
             { vid; vertex = c.vname.(vid); start = e.c_start; release = r })
    end
  done;
  (* Resource exclusivity. *)
  let active = scr.s_active in
  let na = ref 0 in
  for vid = 0 to n - 1 do
    if chosen.(vid) >= 0 then begin
      let e = c.exec.(vid).(chosen.(vid)) in
      if e.c_finish -. e.c_start > eps then begin
        active.(!na) <- vid;
        incr na
      end
    end
  done;
  for a = 0 to !na - 1 do
    let vid = active.(a) in
    let e = c.exec.(vid).(chosen.(vid)) in
    let la = e.c_lane in
    if la <> no_lane then
      for b = a + 1 to !na - 1 do
        let vid' = active.(b) in
        let e' = c.exec.(vid').(chosen.(vid')) in
        if
          e'.c_lane = la
          && e.c_start < e'.c_finish -. eps
          && e'.c_start < e.c_finish -. eps
        then
          fail
            (Violation.Resource_overlap
               {
                 vid;
                 vertex = c.vname.(vid);
                 other_vid = vid';
                 other = c.vname.(vid');
               })
      done
  done;
  (* Deadlines. *)
  let makespan = ref 0. in
  for vid = 0 to n - 1 do
    if chosen.(vid) >= 0 then begin
      let f = c.exec.(vid).(chosen.(vid)).c_finish in
      if f > !makespan then makespan := f
    end
  done;
  scr.s_makespan.(0) <- !makespan;
  if !makespan > c.deadline +. eps then
    fail
      (Violation.Deadline_missed
         { deadline = c.deadline; completion = !makespan });
  for li = 0 to Array.length c.locals - 1 do
    let pid, pname, d, copies = c.locals.(li) in
    let completion = ref 0. in
    for ci = 0 to Array.length copies - 1 do
      let vid = copies.(ci) in
      if chosen.(vid) >= 0 then begin
        let f = c.exec.(vid).(chosen.(vid)).c_finish in
        if f > !completion then completion := f
      end
    done;
    if !completion > d +. eps then
      fail
        (Violation.Local_deadline_missed
           { pid; process = pname; deadline = d; completion = !completion })
  done;
  List.rev !violations

(* Replay one contiguous arena range with range-local scratch,
   collecting violations in scenario order. *)
let replay_range c sp lo hi =
  let scr = make_scratch c in
  let acc = ref [] in
  for i = lo to hi - 1 do
    Telemetry.incr c_scenarios;
    let vs = replay_one c sp i scr in
    if vs <> [] then begin
      if Events.enabled () then Telemetry.add c_violations (List.length vs);
      acc := List.rev_append vs !acc
    end
  done;
  List.rev !acc
