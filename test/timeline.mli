(** Persistent reservation timeline of one exclusive resource (a CPU
    node or the bus): the list-based reference the test oracles schedule
    through, independent of the library's [Ftes_sched.Lane]. Persistence
    keeps the oracles simple: a conditional track forks at every
    condition and each branch continues with its own copy of the
    resource state. *)

type t

val empty : t

val reserve : t -> start:float -> finish:float -> t
(** @raise Invalid_argument if the interval is empty, negative, or
    overlaps an existing reservation. *)

val is_free : t -> start:float -> finish:float -> bool

val earliest_gap : t -> from_:float -> duration:float -> float
(** Earliest [s >= from_] such that [s, s + duration) is free. When
    [from_] is at or past every reservation this is O(1). *)

val intervals : t -> (float * float) list
(** Ascending by start, non-overlapping. *)

val busy_until : t -> float
(** End of the last reservation; 0. when empty. O(1). *)
