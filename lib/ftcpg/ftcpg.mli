(** The fault-tolerant conditional process graph (paper, Sec. 5.1).

    A FT-CPG G(VP ∪ VC ∪ VT, ES ∪ EC) captures all execution scenarios
    of an application under at most [k] transient faults:

    - {e regular} nodes execute unconditionally (within their guard);
    - {e conditional} nodes produce a condition — true if a fault hits
      the execution, false otherwise — and their outgoing paths are
      disjoint per condition value;
    - {e synchronization} nodes (zero execution time) represent frozen
      processes / messages and the deterministic merge of replica
      outputs.

    Construction expands every application process into {e copies}: for
    each input {e context} (a consistent combination of predecessor
    outcomes), for each replica, a chain of execution {e attempts} —
    attempt 1 runs the whole (checkpointed) process, attempt [a > 1]
    re-executes the failed segment after a rollback. Attempt [a] exists
    under the guard "context holds and attempts 1..a-1 failed" and is
    conditional while fault budget and recovery budget remain.

    Frozen processes collapse their contexts behind a synchronization
    node (their faults stay invisible upstream, so they must assume the
    full budget [k] — the transparency cost discussed in Sec. 3.3).
    Frozen messages become a single synchronized transmission; messages
    of replicated producers are sent per replica and merged at a
    zero-time synchronization node (deterministic merge of active
    replication). *)

type kind =
  | Proc_copy of { pid : int; replica : int; attempt : int }
      (** Execution attempt of one copy of a process. *)
  | Msg_inst of { mid : int; replica : int }
      (** One transmission of a message, for one producer outcome. *)
  | Sync_proc of int  (** Synchronization node of a frozen process. *)
  | Sync_msg of int
      (** Synchronized transmission of a frozen message (carries the
          transmission on the bus), or zero-time merge of the replica
          instances of a message ([on_bus = false]). *)

type vertex = private {
  vid : int;
  kind : kind;
  name : string;  (** E.g. "P2^4", "P1(2)^1", "m1^2", "P3^S". *)
  guard : Cond.guard;  (** Guard under which the vertex exists. *)
  duration : float;  (** CPU time (process copies) or worst-case
                         transmission time (bus messages); 0 for local
                         messages and merge nodes. *)
  conditional : bool;  (** Produces condition [vid] when it completes. *)
  exec_node : int option;  (** CPU node, for process copies. *)
  src_node : int option;  (** Sending node, for bus messages. *)
  on_bus : bool;
  msg_size : float;  (** For message vertices (0 otherwise). *)
  frozen : bool;  (** Must receive the same start time in all
                      alternative schedules. *)
  preds : int list;
  succs : int list;
}

type t

val vertex_cap : int
(** 50_000: the most vertices {!build} expands. *)

exception Too_large of int
(** Raised by {!build} when the expansion exceeds {!vertex_cap}; the
    payload is the cap. The FT-CPG grows exponentially with [k] — the
    paper's motivation for transparency and for slack-based scheduling
    inside optimization loops. *)

val build : Problem.t -> t
(** Expand the problem instance into its FT-CPG.
    @raise Too_large beyond {!vertex_cap} vertices. *)

val problem : t -> Problem.t
val vertex_count : t -> int
val vertex : t -> int -> vertex
val vertices : t -> vertex array
(** In topological (creation) order: predecessors have smaller ids. *)

val conditional_vertices : t -> int list
val proc_copies : t -> pid:int -> int list
(** All attempt vertices of a process, across replicas and contexts. *)

val msg_vertices : t -> mid:int -> int list
(** Message instances (and the synchronization vertex, if any). *)

val cond_name : t -> int -> string
(** Name of the condition produced by a conditional vertex, e.g.
    "FP2^4". *)

type family = {
  funiverse : Condvec.universe;
      (** Universe over the conditional vertices, ascending ids. *)
  fguards : Condvec.guard array;
      (** Existence guard of each condition, indexed by field index.
          Guards only reference strictly earlier conditions, so a
          condition's presence is decided by any assignment of the
          fields before it. *)
  fbudget : int;  (** The fault hypothesis [k]. *)
}

val scenario_family : t -> family
(** The symbolic description of the complete-scenario set — exactly
    what {!scenario_space} enumerates, without materializing the arena.
    A complete scenario assigns fault/no-fault to precisely the
    conditions whose existence guard it implies, with at most [fbudget]
    faults in total. This is the input of the symbolic validation
    backend ({!Ftes_sim.Symbolic}), whose whole point is that the arena
    can be astronomically larger than this description. *)

val scenario_space : t -> Condvec.space
(** All complete fault scenarios, enumerated into a packed flat arena
    (see {!Condvec}). Every row assigns an outcome to every conditional
    vertex it reaches, with at most [k] faults. Row order is depth-first
    over conditional vertices in ascending id, fault branch before
    no-fault branch. Exponential — intended for validation on moderate
    instances; {!Condvec.guard_at} unpacks one row to a guard. *)

val scenario_count : t -> int
(** [Condvec.count (scenario_space t)]. *)

val scenario_fault_count : Cond.guard -> int
(** Faults consumed by a scenario. *)

val exists_in : t -> scenario:Cond.guard -> int -> bool
(** Whether a vertex exists in (the worst case of) a scenario. *)

val pp_summary : Format.formatter -> t -> unit
val pp : Format.formatter -> t -> unit
