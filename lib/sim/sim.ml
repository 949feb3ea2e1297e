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

type event = { time : float; what : string }

type outcome = {
  scenario : Cond.guard;
  makespan : float;
  events : event list;
  violations : Violation.t list;
}

let eps = 1e-6

(* The run-time scheduler on each node activates an item according to
   the most specific table column whose guard currently holds. *)
let applicable_entry table ~scenario item =
  let candidates =
    List.filter
      (fun (e : Table.entry) -> Cond.implies scenario e.Table.guard)
      (Table.entries_of_item table item)
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

let scenario_name ftcpg scenario =
  Cond.to_string ~name:(Ftcpg.cond_name ftcpg) scenario

let run table ~scenario =
  let ftcpg = table.Table.ftcpg in
  let problem = Ftcpg.problem ftcpg in
  let app = problem.Problem.app in
  let g = app.App.graph in
  let violations = ref [] in
  let events = ref [] in
  (* The rendered scenario only appears in violation records — don't pay
     for it on the (hot, overwhelmingly common) clean replays. *)
  let sname = lazy (scenario_name ftcpg scenario) in
  let fail kind =
    violations :=
      Violation.make ~scenario ~scenario_label:(Lazy.force sname) kind
      :: !violations
  in
  let trace time fmt =
    Format.kasprintf (fun what -> events := { time; what } :: !events) fmt
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
            (Table.entries_of_item table (Table.Exec vid));
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
                  (Table.entries_of_item table (Table.Bcast vid));
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
    scenario;
    makespan;
    events = List.sort (fun a b -> compare a.time b.time) !events;
    violations = List.rev !violations;
  }

let frozen_start_violations table =
  let ftcpg = table.Table.ftcpg in
  let violations = ref [] in
  Array.iter
    (fun (v : Ftcpg.vertex) ->
      if v.Ftcpg.frozen then begin
        match Table.starts_of_vertex table v.Ftcpg.vid with
        | [] | [ _ ] -> ()
        | starts ->
            violations :=
              Violation.make
                (Violation.Frozen_drift
                   { vid = v.Ftcpg.vid; vertex = v.Ftcpg.name; starts })
              :: !violations
      end)
    (Ftcpg.vertices ftcpg);
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Compiled validator                                                  *)
(* ------------------------------------------------------------------ *)

(* Exhaustive validation replays every scenario of the packed arena
   (see {!Ftes_ftcpg.Condvec}) against a pre-compiled form of the
   table — per-vertex arrays of activation columns with packed guards,
   precomputed specificity, lane ids and release times, now housed in
   {!Compiled} because the symbolic backend ({!Symbolic}) replays the
   very same compiled form cube-wise. A replay is pure array
   arithmetic over shared read-only data plus a small per-worker
   scratch — no list walks, no hash tables, and (on the overwhelmingly
   common clean scenario) no allocation at all. That last point is
   what lets the domain pool actually scale: the legacy per-scenario
   path allocated guard lists, trace events and hashtable nodes on
   every replay, serializing workers behind the shared major heap and
   minor-GC stop-the-world pauses, so the --jobs curve stayed flat.

   The replay checks and their emission order mirror [run] exactly, so
   the violation list (values, order, rendered messages) is
   byte-identical to one [run] per scenario plus the transparency check
   — the tests keep that composition as the cross-check oracle
   ([Sim_oracle.validate]). *)

let compile = Compiled.compile
let make_scratch = Compiled.make_scratch
let replay_one = Compiled.replay_one
let replay_range = Compiled.replay_range

(* Scenarios are sharded into coarse contiguous ranges — a handful per
   domain, not a task per scenario — so each worker streams through its
   slice of the arena with its own scratch. The ordered range merge
   keeps the violation list byte-identical for every [jobs] value. *)
let replay_space ?jobs c sp =
  let total = Condvec.count sp in
  if not (Events.enabled ()) then
    List.concat (Ftes_util.Par.map_ranges ?jobs total (replay_range c sp))
  else begin
    (* Progress events ride on a shared cumulative counter: each range
       reports the new running total as it completes (the event lands
       in the worker's ring and is delivered at the next drain). The
       counter feeds nothing back into the replay, so the violation
       list stays byte-identical events on/off. *)
    let done_ = Atomic.make 0 in
    let range lo hi =
      let vs = replay_range c sp lo hi in
      let n = hi - lo in
      let cleared = Atomic.fetch_and_add done_ n + n in
      Events.emit
        (Events.Validation_progress { backend = "explicit"; cleared; total });
      vs
    in
    let out = List.concat (Ftes_util.Par.map_ranges ?jobs total range) in
    Events.drain ();
    out
  end

(* Early-exit replay: consume the arena in pool-sized batches and trim
   the result to the exact minimal scenario prefix whose cumulative
   violation count reaches [limit]. The trim makes the result
   independent of the batch size — and therefore of [jobs] — while the
   batch size itself scales with the pool so no worker sits idle. *)
let replay_until_space ?jobs ~limit c sp =
  let count = Condvec.count sp in
  let jobs_hint =
    if Ftes_util.Par.in_worker () then 1
    else
      match jobs with
      | Some j -> max 1 j
      | None -> Ftes_util.Par.default_jobs ()
  in
  let batch = max 32 (8 * jobs_hint) in
  let rec go pos found acc =
    if pos >= count then List.concat (List.rev acc)
    else begin
      let hi = min count (pos + batch) in
      let out = Array.make (hi - pos) [] in
      ignore
        (Ftes_util.Par.map_ranges ?jobs (hi - pos) (fun lo hi' ->
             let scr = make_scratch c in
             for off = lo to hi' - 1 do
               Telemetry.incr c_scenarios;
               let vs = replay_one c sp (pos + off) scr in
               if vs <> [] then begin
                 if Events.enabled () then
                   Telemetry.add c_violations (List.length vs);
                 out.(off) <- vs
               end
             done));
      if Events.enabled () then begin
        Events.emit
          (Events.Validation_progress
             { backend = "explicit"; cleared = hi; total = count });
        Events.drain ()
      end;
      let found = ref found in
      let cut = ref (-1) in
      (try
         for off = 0 to Array.length out - 1 do
           match out.(off) with
           | [] -> ()
           | vs ->
               found := !found + List.length vs;
               if !found >= limit then begin
                 cut := off;
                 raise Exit
               end
         done
       with Exit -> ());
      if !cut >= 0 then begin
        let kept = ref [] in
        for off = !cut downto 0 do
          if out.(off) <> [] then kept := out.(off) :: !kept
        done;
        List.concat (List.rev_append acc !kept)
      end
      else go hi !found (List.concat (Array.to_list out) :: acc)
    end
  in
  go 0 0 []

let check_space ?jobs ?stop_after table sp =
  let c = compile table sp.Condvec.u in
  let body () =
    match stop_after with
    | Some limit when limit > 0 ->
        let vs = replay_until_space ?jobs ~limit c sp in
        (* The transparency check only runs when scenario replay did not
           already prove the table bad. *)
        if List.length vs >= limit then vs
        else vs @ frozen_start_violations table
    | _ -> replay_space ?jobs c sp @ frozen_start_violations table
  in
  if Events.enabled () then
    Events.with_span ~cat:"sim"
      ~args:[ ("scenarios", Events.Int (Condvec.count sp)) ]
      "sim.validate" body
  else body ()

(* [`Auto] picks the symbolic backend only when the scenario count is
   provably known (frozen chain structure) and large enough that the
   explicit arena would dominate; the explicit path keeps its
   byte-identical legacy behavior as the default. *)
let auto_threshold = 65_536.

type mode = [ `Explicit | `Symbolic | `Auto ]

let validate ?jobs ?stop_after ?(mode = `Explicit) table =
  let explicit () =
    check_space ?jobs ?stop_after table
      (Ftcpg.scenario_space table.Table.ftcpg)
  in
  let symbolic () =
    let body () =
      let vs = Symbolic.check ?jobs ?stop_after table in
      match stop_after with
      | Some limit when limit > 0 && List.length vs >= limit -> vs
      | _ -> vs @ frozen_start_violations table
    in
    if Events.enabled () then
      Events.with_span ~cat:"sim" "sim.validate.symbolic" body
    else body ()
  in
  match mode with
  | `Explicit -> explicit ()
  | `Symbolic -> symbolic ()
  | `Auto -> (
      match Symbolic.frozen_scenario_count table.Table.ftcpg with
      | Some count when count > auto_threshold -> symbolic ()
      | Some _ | None -> explicit ())

let validate_sampled ?jobs ?stop_after ~rng ~samples table =
  let sp = Ftcpg.scenario_space table.Table.ftcpg in
  let total = Condvec.count sp in
  (* Sample by index over the arena instead of materializing the full
     guard list. Shuffling an index array of the same length consumes
     exactly the [Rng] draws the historical [Rng.sample] made, so the
     chosen scenario set is byte-identical to the list implementation. *)
  let idx = Array.init total Fun.id in
  Ftes_util.Rng.shuffle rng idx;
  let keep = min samples total in
  let no_fault = ref [] in
  for i = total - 1 downto 0 do
    if Condvec.fault_count sp i = 0 then
      no_fault := Condvec.guard_at sp i :: !no_fault
  done;
  let sampled = List.init keep (fun j -> Condvec.guard_at sp idx.(j)) in
  let chosen = List.sort_uniq Cond.compare (!no_fault @ sampled) in
  check_space ?jobs ?stop_after table (Condvec.of_guards sp.Condvec.u chosen)

(* String-compatible wrappers: the historical API, used by the ordered-
   merge determinism tests and by log-oriented callers. *)
let messages = List.map Violation.to_string
let validate_messages ?jobs table = messages (validate ?jobs table)

let validate_sampled_messages ?jobs ~rng ~samples table =
  messages (validate_sampled ?jobs ~rng ~samples table)

let frozen_start_messages table = messages (frozen_start_violations table)

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>scenario faults=%d makespan=%g%s@,"
    (Cond.fault_count o.scenario)
    o.makespan
    (if o.violations = [] then "" else "  VIOLATIONS:");
  List.iter
    (fun v -> Format.fprintf ppf "  ! %s@," (Violation.to_string v))
    o.violations;
  List.iter (fun e -> Format.fprintf ppf "  %8.1f %s@," e.time e.what) o.events;
  Format.fprintf ppf "@]"
