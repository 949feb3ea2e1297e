module Cond = Ftes_ftcpg.Cond
module Condvec = Ftes_ftcpg.Condvec
module Ftcpg = Ftes_ftcpg.Ftcpg
module Table = Ftes_sched.Table
module Events = Ftes_util.Events

type event = { time : float; what : string }

type outcome = {
  scenario : Cond.guard;
  makespan : float;
  events : event list;
  violations : Violation.t list;
}

(* The trace is read back from the columns the replay chose. *)
let replay c sp i =
  let scr = Compiled.make_scratch c in
  let violations = Compiled.replay_one c sp i scr in
  (* Activations in vertex order, then broadcasts in vertex order,
     consed up newest first: the sort below keeps that order for equal
     times, which is part of the trace. *)
  let events = ref [] in
  for vid = 0 to c.Compiled.nverts - 1 do
    Option.iter
      (fun (e : Compiled.centry) ->
        let what =
          Printf.sprintf "start %s (until %g)" c.Compiled.vname.(vid)
            e.Compiled.c_finish
        in
        events := { time = e.Compiled.c_start; what } :: !events)
      (Compiled.chosen_exec c scr vid)
  done;
  for vid = 0 to c.Compiled.nverts - 1 do
    Option.iter
      (fun (b : Compiled.centry) ->
        let what = "broadcast " ^ c.Compiled.vcond_name.(vid) in
        events := { time = b.Compiled.c_start; what } :: !events)
      (Compiled.chosen_bcast c scr vid)
  done;
  {
    scenario = Condvec.guard_at sp i;
    makespan = Compiled.makespan scr;
    events = List.sort (fun a b -> compare a.time b.time) !events;
    violations;
  }

(* A possibly partial scenario is the one row of a packed space. *)
let run table ~scenario =
  let u = (Ftcpg.scenario_family table.Table.ftcpg).Ftcpg.funiverse in
  replay (Compiled.compile table u) (Condvec.of_guards u [ scenario ]) 0

(* The execution starts of every frozen vertex, gathered in one pass
   over the entry list, then sorted and deduplicated per vertex as
   [Table.starts_of_vertex] does. *)
let frozen_start_violations table =
  let ftcpg = table.Table.ftcpg in
  let starts = Array.make (Ftcpg.vertex_count ftcpg) [] in
  List.iter
    (fun (e : Table.entry) ->
      match e.Table.item with
      | Table.Exec vid when (Ftcpg.vertex ftcpg vid).Ftcpg.frozen ->
          starts.(vid) <- e.Table.start :: starts.(vid)
      | Table.Exec _ | Table.Bcast _ -> ())
    table.Table.entries;
  let violations = ref [] in
  Array.iteri
    (fun vid l ->
      match List.sort_uniq compare l with
      | [] | [ _ ] -> ()
      | starts ->
          let v = Ftcpg.vertex ftcpg vid in
          violations :=
            Violation.make
              (Violation.Frozen_drift { vid; vertex = v.Ftcpg.name; starts })
            :: !violations)
    starts;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Compiled validator                                                  *)
(* ------------------------------------------------------------------ *)

(* Exhaustive validation replays every scenario of the packed arena
   (see {!Ftes_ftcpg.Condvec}) against a pre-compiled form of the
   table — per-vertex arrays of activation columns with packed guards,
   precomputed specificity, lane ids and release times, housed in
   {!Compiled} because [run] above and the symbolic backend
   ({!Symbolic}) replay the very same compiled form. A replay is pure
   array arithmetic over shared read-only data plus a small per-worker
   scratch: one walk of the table's guard trie over the scenario's row,
   then every check over the vertices that exist in it. A clean
   scenario allocates 0 words (about 9,000 before the guard kernels
   lost their per-call closures and the scratch took over the lazy
   scenario, label and violation accumulator). That is what lets the
   domain pool scale: a per-scenario path that allocates serializes
   workers behind the shared major heap and minor-GC stop-the-world
   pauses.

   The replay checks and their emission order mirror the reference
   simulator [Sim_oracle.run] exactly, so the violation list (values,
   order, rendered messages) is byte-identical to one [Sim_oracle.run]
   per scenario plus the transparency check — the tests keep that
   composition as the cross-check oracle ([Sim_oracle.validate]). *)

(* Scenarios are sharded into coarse contiguous ranges — a handful per
   domain, not a task per scenario — so each worker streams through its
   slice of the arena with its own scratch. The ordered range merge
   keeps the violation list byte-identical for every [jobs] value. *)
let replay_space ?jobs c sp =
  let total = Condvec.count sp in
  if not (Events.enabled ()) then
    List.concat
      (Ftes_util.Par.map_ranges ?jobs total (Compiled.replay_range c sp))
  else begin
    (* Progress events ride on a shared cumulative counter: each range
       reports the new running total as it completes (the event lands
       in the worker's ring and is delivered at the next drain). The
       counter feeds nothing back into the replay, so the violation
       list stays byte-identical events on/off. *)
    let done_ = Atomic.make 0 in
    let range lo hi =
      let vs = Compiled.replay_range c sp lo hi in
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

let check_space ?jobs table sp =
  let c = Compiled.compile table sp.Condvec.u in
  let body () = replay_space ?jobs c sp @ frozen_start_violations table in
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

let validate ?jobs ?(mode = `Explicit) table =
  let explicit () =
    check_space ?jobs table (Ftcpg.scenario_space table.Table.ftcpg)
  in
  let symbolic () =
    let body () = Symbolic.check ?jobs table @ frozen_start_violations table in
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

let validate_sampled ?jobs ~rng ~samples table =
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
  check_space ?jobs table (Condvec.of_guards sp.Condvec.u chosen)

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
