(** Pre-compiled schedule tables: the shared substrate of the explicit
    ({!Sim.validate}) and symbolic ({!Symbolic}) validation backends.

    A schedule table is compiled once per validation run into flat
    per-vertex arrays — activation/broadcast columns with their guard
    ids, precomputed specificity, integer exclusivity lanes and
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
    Each column and vertex records the node its guard ends at
    ([c_node], [vnode]; -1 for no node), and no guard is packed: the
    guard of a node is the conjunction of the literal tests on its
    path, which {!Symbolic} ORs into packed words once per check.
    Each node lists what ends there: the vertices whose existence
    guard it is and the columns whose guard it is. A replay walks the
    trie once over the scenario's row, entering a child only when the
    row's 2-bit field equals its literal (an absent field matches none,
    so partial rows need no special case), and gathers the lists of
    the nodes it enters, chaining each column to the previous one of
    its vertex. That gives the existing vertices and for each its
    applicable activation and broadcast columns; every check runs over
    those only. On generated k=4 tables of 245–565 vertices (10
    processes, 2 nodes, about 4,700 columns), 22–27 vertices exist in
    a scenario on average.

    {b Order.} Selection takes the most specific applicable column
    and, on ties, the lowest column index, the first in table order,
    so the choices need no order. A replay checks its scenario with
    the vertices and columns in the order the walk gathered them; only
    when that finds a violation does it sort them into vertex and
    table order and run the same checks again, so the violations come
    out in [Sim_oracle.run]'s order. After a clean replay the existing
    vertices of the scratch are therefore not ascending. Resource
    exclusivity is a sweep per lane over the active items sorted by
    start, and only a scenario it flags runs the pair loop that emits
    [Resource_overlap] violations.

    {b Scratch.} Each replay refills its gathered lists from the start,
    unlinks the chains it built and resets only the [chosen] entries
    the previous one set, so one
    scratch can replay row 0 of many one-row spaces
    ({!Diagnose.shrink}, and {!Symbolic} confirming its witnesses).
    The scenario, its label and the violation accumulator live in the
    scratch and are built on the first violation, so a clean scenario
    sorts nothing and allocates nothing. *)

type centry = {
  c_node : int;
      (** The guard trie node its guard ends at, which is its guard id;
          -1 when the guard tests a condition outside the universe. *)
  c_size : int;  (** [Cond.size] of the column guard: specificity. *)
  c_start : float;
  c_finish : float;
  c_lane : int;  (** Exclusivity lane; {!no_lane} for local items. *)
}
(** One schedule-table column (activation or broadcast) in compiled
    form. *)

type index = private {
  tword : int array;
  tmask : int array;
  tbits : int array;
      (** Node [n] tests one literal: the row's word [tword.(n)] under
          [tmask.(n)] equals [tbits.(n)] (the {!Ftes_ftcpg.Condvec}
          field encoding). The root, node 0, tests nothing. *)
  tskip : int array;
      (** Nodes are laid out in pre-order; the subtree of node [n] spans
          [n, tskip.(n)). *)
  tstart : int array;
  tcodes : int array;
  shift : int;
}
(** The guard trie and, per trie node, the vertices whose existence
    guard ends there and the activation and broadcast columns whose
    guard ends there. The guard of node [n] is the conjunction of the
    tests on the path from the root to [n]. *)

type t = {
  cftcpg : Ftes_ftcpg.Ftcpg.t;
  nverts : int;
  nnodes : int;
  deadline : float;
  exec : centry array array;
      (** vid -> activation columns, table order. *)
  bcast : centry array array;
      (** vid -> broadcast columns, table order. *)
  vnode : int array;
      (** vid -> the trie node of its existence guard (its guard id); -1
          when the guard tests a condition outside the universe. *)
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
    that apply, so a replay costs the trie walk plus the applicable
    columns, whatever the columns per vertex; a scenario with a
    violation is checked a second time, in order. *)

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
