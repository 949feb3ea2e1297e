(** Conditional list scheduling of an FT-CPG into schedule tables
    (paper, Sec. 5.2).

    The scheduler explores the binary tree of condition outcomes in
    revelation order. A {e track} carries a guard plus the state of
    every resource; items are placed greedily (earliest feasible start,
    ties by partial-critical-path priority) as long as their start
    precedes the next condition revelation — later decisions fork with
    the condition and may differ per branch, which is exactly the
    schedule-table semantics: an activation committed before a
    revelation is shared by both outcomes.

    Distributed-knowledge constraints: an activation whose guard tests a
    condition produced on another node waits for the condition
    broadcast, which is itself scheduled on the bus as soon as the
    condition is produced (paper: "broadcast as soon as possible").

    Frozen vertices are given a single, guard-independent start time by
    a fixpoint: each iteration raises a frozen vertex's start to the
    worst observed over all tracks, pre-reserving the corresponding
    resource windows so that no other activation may observe the
    difference (transparency).

    The output is built in two phases: one sequential depth-first walk
    of the scenario tree emits each committed activation once, under
    the guard of the track that committed it, and {!Table.assemble}
    groups those raw entries into slots and collapses each slot's
    guards. Assembly takes most of the time, so it is the phase that
    runs in parallel. *)

val cond_size : float
(** 1.: the size of a condition broadcast message. *)

val track_cap : int
(** 20_000: the most leaves the scenario tree may grow. *)

val fix_iter_cap : int
(** 64: the most fixpoint iterations for frozen start times. *)

exception Blocked of string
(** A vertex could never be activated in some scenario (dependency
    deadlock) — indicates an inconsistent FT-CPG. *)

exception Too_many_tracks of int
(** Raised by {!schedule} beyond {!track_cap} tracks; the payload is
    the cap. *)

exception Fixpoint_diverged of int
(** Raised by {!schedule} when the frozen start times have not settled
    after {!fix_iter_cap} iterations; the payload is the cap. *)

val schedule : ?jobs:int -> Ftes_ftcpg.Ftcpg.t -> Table.t
(** Incremental scheduler: guard-aware ready set, memoized tentative
    placements (invalidated when the {!Lane} they target grows), and one
    mutable track state, lanes included, restored by an undo trail at
    every revelation fork (a fork costs the writes below it, not the
    vertex count). The scenario tree is walked sequentially, depth
    first; [jobs] (default 1) is handed to {!Table.assemble}, which
    collapses the slots of the raw entries on the {!Ftes_util.Par} pool.
    The produced table is byte-identical for every [jobs] value and to
    the direct transcription of the paper's algorithm that the tests
    keep as its digest oracle ([test/conditional_oracle.ml]). *)
