(** Pre-compiled schedule tables: the shared substrate of the explicit
    ({!Sim.validate}) and symbolic ({!Symbolic}) validation backends.

    A schedule table is compiled once per validation run into flat
    per-vertex arrays — activation/broadcast columns with packed
    guards, precomputed specificity, integer exclusivity lanes and
    release times — so that replaying a scenario is pure array
    arithmetic over shared read-only data plus a small per-worker
    scratch. The explicit backend runs {!replay_one} over every row of
    a packed scenario arena; the symbolic backend runs the same checks
    over whole cubes at a time and falls back to {!replay_one} on a
    one-row {!Ftes_ftcpg.Condvec.singleton} space to confirm each
    concretized witness, which is what keeps the two backends'
    verdicts aligned by construction.

    {!replay_one} is the only single-scenario replay of the library:
    {!Sim.run} and {!Diagnose.shrink} replay one-row spaces through it
    and read the chosen columns back from the scratch. Its checks and
    their emission order mirror the list-walking reference simulator
    [Sim_oracle.run] exactly; the violation list (values, order,
    rendered messages) is byte-identical to one [Sim_oracle.run] per
    scenario, the composition the tests keep as their oracle
    ([test/sim_oracle.ml]). *)

type centry = {
  c_guard : Ftes_ftcpg.Condvec.guard;
  c_size : int;  (** [Cond.size] of the column guard: specificity. *)
  c_start : float;
  c_finish : float;
  c_lane : int;  (** Exclusivity lane; {!no_lane} for local items. *)
}
(** One schedule-table column (activation or broadcast) in compiled
    form. *)

type t = {
  cftcpg : Ftes_ftcpg.Ftcpg.t;
  nverts : int;
  nnodes : int;
  deadline : float;
  exec : centry array array;
      (** vid -> activation columns, table order. *)
  bcast : centry array array;
      (** vid -> broadcast columns, table order. *)
  vguard : Ftes_ftcpg.Condvec.guard array;  (** Existence guards. *)
  vconditional : bool array;
  vname : string array;
  vcond_name : string array;
  vpreds : int array array;
  vknow : int array array;
      (** Conditions of the vertex guard whose broadcast the activation
          must await (the guard tests a condition produced on another
          node). *)
  vrelease : float array;
      (** nan when the vertex has no release time. *)
  locals : (int * string * float * int array) array;
      (** (pid, name, local deadline, copies), process-array order. *)
}

val no_lane : int
(** Lane id of items exempt from the exclusivity check. *)

val eps : float
(** Float comparison slack shared by all timing checks. *)

val compile : Ftes_sched.Table.t -> Ftes_ftcpg.Condvec.universe -> t

val scenario_name : Ftes_ftcpg.Ftcpg.t -> Ftes_ftcpg.Cond.guard -> string
(** Scenario rendering used in violation labels ("FP2^4 ..."). *)

type scratch
(** Per-worker replay scratch, reused across scenarios. After a replay
    it holds the columns that replay chose. *)

val make_scratch : t -> scratch

val replay_one :
  t -> Ftes_ftcpg.Condvec.space -> int -> scratch -> Violation.t list
(** Replay scenario [i] of the space; violations in [Sim_oracle.run]'s
    emission order. The row may be partial: a vertex exists, and a
    column applies, when every literal of its guard is present in the
    row. *)

val chosen_exec : t -> scratch -> int -> centry option
(** The activation column the last replay chose for vertex [vid];
    [None] when the vertex does not exist in that scenario or has no
    applicable column. *)

val chosen_bcast : t -> scratch -> int -> centry option
(** The broadcast column the last replay chose for condition [vid];
    always [None] on a single-node architecture, where no condition is
    broadcast. *)

val makespan : scratch -> float
(** Latest finish over the activations the last replay chose; [0.]
    when none was chosen. *)

val replay_range :
  t -> Ftes_ftcpg.Condvec.space -> int -> int -> Violation.t list
(** Replay rows [lo, hi) with a fresh local scratch, violations in
    scenario order. Bumps the [sim.scenarios]/[sim.violations]
    telemetry counters. *)

(**/**)

val c_scenarios : Ftes_util.Telemetry.counter
val c_violations : Ftes_util.Telemetry.counter
