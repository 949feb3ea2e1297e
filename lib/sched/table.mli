(** Fault-tolerant schedule tables (paper, Sec. 5.2).

    The output of conditional scheduling: for every FT-CPG vertex (and
    every condition broadcast) a set of activation times, each valid
    under a guard — a conjunction of condition values. At run time a
    non-preemptive scheduler on each node walks its part of the table
    and activates processes and transmissions as condition values become
    known; condition values produced on a node are broadcast to all
    other nodes as soon as possible. *)

type resource =
  | Node of int  (** CPU of a computation node. *)
  | Bus  (** The shared broadcast channel. *)
  | Local  (** Zero-time: same-node message or synchronization merge. *)

type item =
  | Exec of int  (** Execution / transmission of FT-CPG vertex [vid]. *)
  | Bcast of int  (** Broadcast of the condition produced by vertex
                      [vid]. *)

type entry = {
  item : item;
  guard : Ftes_ftcpg.Cond.guard;  (** Guard at the moment the activation
                                      decision is committed. *)
  start : float;
  finish : float;
  resource : resource;
}

type track = {
  scenario : Ftes_ftcpg.Cond.guard;  (** A complete fault scenario. *)
  makespan : float;  (** Application completion time in that scenario. *)
}

type t = private {
  ftcpg : Ftes_ftcpg.Ftcpg.t;
  entries : entry list;
  tracks : track list;
}

val make :
  ftcpg:Ftes_ftcpg.Ftcpg.t -> entries:entry list -> tracks:track list -> t
(** Assembles the table from the entries the tracks committed. Entries
    of one {e slot} — same [item] and [resource], [start] equal after
    rounding to 1e-6 — merge: the slot's last entry in [entries]
    supplies [start] and [finish], and its guards are resolved in a
    fixed order. Repeatedly, the first guard in {!Ftes_ftcpg.Cond.compare}
    order that differs from another guard of the slot in exactly one
    complementary literal merges with the least such partner into their
    common rest, and every guard implying the merge is dropped; at the
    fixpoint, guards implied by another guard are dropped and
    resolution resumes. Resolution is not confluent, so this order is
    part of the output. [entries] may repeat an entry (e.g. once per
    track sharing it); the table is the same. Entries are sorted by
    [(start, item)], stably. *)

val assemble :
  jobs:int ->
  ftcpg:Ftes_ftcpg.Ftcpg.t ->
  entries:entry list ->
  tracks:track list ->
  t
(** {!make}, with the slots collapsed on up to [jobs] domains of the
    {!Ftes_util.Par} pool (clamped like every [Par] call, sequential
    inside a pool worker). Slots are independent and their results are
    merged in slot order, so the table is the same for every [jobs];
    [make] is [assemble ~jobs:1]. *)

val schedule_length : t -> float
(** Worst-case makespan over all fault scenarios — the fault-tolerant
    schedule length used by the FTO metric. *)

val no_fault_length : t -> float
(** Makespan of the fault-free scenario. *)

val entries_on : t -> resource -> entry list

val starts_of_vertex : t -> int -> float list
(** Distinct activation times of one FT-CPG vertex across guards. *)

val meets_deadline : t -> bool
(** Global deadline and every local deadline, in every scenario.
    Local deadlines are checked against the worst-case completion of the
    process's copies in each scenario where they execute. *)

val violations : t -> string list
(** Human-readable deadline violations (empty iff {!meets_deadline}). *)

val entry_count : t -> int

val pp : Format.formatter -> t -> unit
(** Per-node tables in the style of the paper's Fig. 6 (list layout:
    one line per application object, activation times with guards). *)

val pp_matrix : ?max_columns:int -> Format.formatter -> t -> unit
(** Matrix layout close to Fig. 6: columns are guards; suppressed when
    there are more than [max_columns] (default 16) distinct guards. *)
