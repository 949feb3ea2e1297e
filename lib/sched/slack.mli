(** Root-schedule generation with recovery slack — the scalable
    schedule-length estimator used inside the design-optimization loops
    (mapping / policy assignment / checkpoint optimization), where full
    conditional scheduling is exponentially expensive (paper, Sec. 6).

    The estimator list-schedules the fault-free {e root schedule} of all
    process copies (replicas run unconditionally — active replication)
    and all cross-node transmissions on the bus, then adds a shared
    recovery-slack term for faults: at most [k] transient faults occur
    per cycle, and each fault delays the affected chain by one recovery
    of the faulted process, so the term is the largest per-process
    [k]-fault recovery slack left after that process's downstream
    laxity — slack is shared ("max", not "sum").

    Transparency enters as follows: a frozen message departs only after
    its producer's worst-case completion, and a frozen process starts no
    earlier than the worst-case arrival of its inputs.

    The result is an {e estimate}, not a bound on the conditional
    schedule tables: condition broadcasts are not placed, and on
    optimized designs the estimate often falls below the worst case of
    the table [Ftes_sched.Conditional] builds for the same design (see
    ROADMAP item 1).

    {b One kernel, two outputs.} Everything the estimator reads that
    depends only on the {e universe} — the application (graph and
    transparency), the WCET table and the architecture — is flattened
    once into per-universe tables: message endpoints, sizes and
    transmission times, in/out message and consumer rows, frozen flags,
    releases, overheads, a flat WCET matrix, in-degrees, the bus view
    and the list-scheduling priorities. Each domain keeps the last
    universe's tables, keyed by the physical identity of the app, the
    WCET table and the architecture. A WCET table must therefore not be
    changed in place ([Ftes_arch.Wcet.set]/[forbid]) once a problem
    built on it has been evaluated: the WCET matrix and the priorities
    would go stale.

    The schedule itself is built in a per-domain scratch (lanes,
    copy-indexed placement arrays, the ready heap, the relaxation
    arrays), cleared and reused by every evaluation of the domain, so
    two evaluations must not interleave on one domain (the library
    starts no threads). {!length} and {!estimate}, the optimizers' entry points, read their
    figures off the scratch; {!evaluate} also turns it into placement
    lists. All three compute the same figures, bit for bit. *)

type placement = {
  pid : int;
  copy : int;
  node : int;
  start : float;
  finish : float;  (** Fault-free completion. *)
  worst_finish : float;  (** Completion if all remaining faults hit this
                             copy. *)
}

type msg_placement = {
  mid : int;
  copy : int;  (** Producer copy. *)
  start : float;
  finish : float;
  on_bus : bool;
}

type result = {
  root_makespan : float;  (** Fault-free schedule length. *)
  slack_term : float;  (** Shared recovery-slack term. *)
  length : float;  (** Estimated worst-case fault-tolerant schedule
                       length: [root_makespan + slack_term]. *)
  placements : placement list;
  msg_placements : msg_placement list;
  penalties : float array;
      (** Per-process laxity-discounted recovery penalty;
          [slack_term = max over processes]. The optimizer targets the
          processes at the top of this array. *)
}

val critical_processes : result -> (int * float) list
(** Processes sorted by decreasing penalty (positive penalties only). *)

val evaluate : ?ft:bool -> Ftes_ftcpg.Problem.t -> result
(** [ft:false] evaluates the same instance {e ignoring fault tolerance}:
    only the original copies, raw WCETs without overheads, no slack —
    the baseline of the paper's fault-tolerance overhead (FTO) metric.
    Default [ft:true]. *)

val estimate : ?ft:bool -> Ftes_ftcpg.Problem.t -> result
(** [evaluate] without the placement lists: [placements] and
    [msg_placements] are empty, every figure is [evaluate]'s. The
    optimizers read nothing else. *)

val length : ?ft:bool -> Ftes_ftcpg.Problem.t -> float
(** [length p = (evaluate p).length], computed without building the
    placement lists or the result. *)

val fto : ft_length:float -> nft_length:float -> float
(** Fault-tolerance overhead: percentage increase of the schedule length
    due to fault tolerance (paper, Sec. 6). *)

val pp_result : Format.formatter -> result -> unit
