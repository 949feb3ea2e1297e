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
    ([test/sim_oracle.ml]).

    {b Guard index.} A replay costs what holds in the scenario, not the
    whole table. {!compile} puts every guard of the table (vertex
    existence guards, activation and broadcast columns) into one trie
    over their literals, which are sorted by condition id; equal
    guards end at the same node, so a node id is a guard id, and a
    guard with a literal outside the universe is listed at no node.
    Each node lists what ends there: the vertices whose existence
    guard it is and the columns whose guard it is. A replay walks the
    trie once over the scenario's row, entering a child only when the
    row's 2-bit field equals its literal (an absent field matches none,
    so partial rows need no special case), and gathers the lists of
    the nodes it enters, chaining each column to the previous one of
    its vertex. That gives the existing vertices, which are sorted into
    vertex order, and for each its applicable activation and broadcast
    columns, sorted into table order; every check runs over those
    only. On generated k=4 tables of 245–565 vertices (10 processes,
    2 nodes, about 4,700 columns), 22–27 vertices exist in a scenario
    on average.

    {b Scratch.} Each replay refills its gathered lists from the start,
    unlinks the chains it built and resets only the [chosen] entries
    the previous one set, so one
    scratch can replay row 0 of many one-row spaces
    ({!Diagnose.shrink}, and {!Symbolic} confirming its witnesses).
    The scenario, its label and the violation accumulator live in the
    scratch and are built on the first violation, so a clean scenario
    allocates nothing. *)

type centry = {
  c_guard : Ftes_ftcpg.Condvec.guard;
  c_size : int;  (** [Cond.size] of the column guard: specificity. *)
  c_start : float;
  c_finish : float;
  c_lane : int;  (** Exclusivity lane; {!no_lane} for local items. *)
}
(** One schedule-table column (activation or broadcast) in compiled
    form. *)

type index
(** The guard trie and, per trie node, the vertices whose existence
    guard ends there and the activation and broadcast columns whose
    guard ends there. *)

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
  index : index;
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
    row. Selection and the ambiguity checks visit only the columns
    that apply, in table order, so a replay costs the trie walk plus
    the applicable columns, whatever the columns per vertex. *)

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
