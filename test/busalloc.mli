(** Bus reservation bookkeeping of the test oracles: the list-based
    reference of the library's [Ftes_sched.Lane] bus layout.

    For a TDMA bus, transmissions of different nodes can never collide —
    each node only transmits inside its own slots — so reservations are
    kept in per-node lanes: placement only scans the sender's lane. (A
    message spanning several rounds blocks the sender's lane for the
    whole span, a mild conservatism that only affects the sender's own
    later messages.)

    For a single contention bus all nodes share one lane.

    The structure is persistent: the conditional scheduler forks
    execution tracks and each branch continues with its own copy. *)

type t

val create : Ftes_arch.Bus.t -> nodes:int -> t

val place :
  t -> src:int -> size:float -> earliest:float -> t * (float * float)
(** Find the first conflict-free transmission window for [src] starting
    at or after [earliest], reserve it, and return [(start, finish)].
    Zero-size messages return [(earliest, earliest)] without reserving
    anything. *)

val probe : t -> src:int -> size:float -> earliest:float -> float * float
(** The window {!place} would choose, without reserving it. *)

val reserve_window : t -> src:int -> start:float -> finish:float -> t
(** Pre-reserve an explicit window (frozen transmissions).
    @raise Invalid_argument if it overlaps an existing reservation in
    the sender's lane. *)
