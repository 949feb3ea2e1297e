(** The placement kernel of every scheduler: the reservation lane of one
    exclusive resource (a CPU node, or one lane of the bus) and the bus
    window arithmetic.

    A lane holds non-overlapping, non-empty [\[start, finish)] intervals,
    ascending. Zero-length reservations occupy nothing, touching
    intervals are kept apart, and comparisons carry a [1e-9] eps.
    Lanes are mutable; a scheduler that branches undoes reservations
    with {!remove}, newest first, and one that is reused between
    schedules starts over with {!clear}. Between removals a lane only
    grows. *)

type view = private {
  bus : Ftes_arch.Bus.t;
  tdma : bool;
  slot : float;  (** TDMA slot length; 0. for a single bus. *)
  round : float;  (** TDMA round length; 0. for a single bus. *)
  offsets : float array;  (** Per-node slot offset within a round. *)
}
(** What {!Ftes_arch.Bus.next_window} reads, copied out once per
    schedule, so that window searches run on unboxed floats. *)

val view : Ftes_arch.Bus.t -> nodes:int -> view

val window_finish : view -> tx:float -> float -> float
(** [snd (Bus.next_window ...)] of a message of transmission time [tx]
    from the window's start. *)

type t

val create : unit -> t
val length : t -> int

val clear : t -> unit
(** Remove every reservation, keeping the lane's storage for reuse. *)

val intervals : t -> (float * float) list
(** Ascending by start. *)

val earliest_gap : t -> from_:float -> duration:float -> float
(** Earliest [s >= from_] such that [\[s, s + duration)] is free. *)

val find_window : t -> view -> src:int -> tx:float -> earliest:float -> float
(** Start of the first window at or after [earliest] in which [src] can
    send a message of transmission time [tx > 0.] without overlapping a
    reservation of the lane; it ends at [window_finish v ~tx start]. *)

val bus_window :
  t -> view -> src:int -> size:float -> earliest:float -> float * float
(** {!find_window} for a message of [size], as [(start, finish)]; a
    message of size [<= 0.] needs no window: [(earliest, earliest)]. *)

val reserve : t -> start:float -> finish:float -> int
(** Reserve [\[start, finish)] and return its index in the lane, or [-1]
    when the interval is empty and nothing was reserved.
    @raise Invalid_argument if [finish < start] or the interval
    overlaps a reservation. *)

val remove : t -> int -> unit
(** Undo the {!reserve} that returned this index, once every later
    reservation has been removed. *)

val bus_lanes : view -> t array
(** The bus lane layout of every scheduler: one lane per sender on a
    TDMA bus (each node transmits only in its own slots), one shared
    lane on a single bus. *)

val bus_lane : view -> src:int -> int
(** Index in {!bus_lanes} of the lane [src] transmits on. *)
