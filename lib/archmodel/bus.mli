(** Broadcast communication channel models (paper, Sec. 2).

    The platform is a set of nodes sharing one broadcast channel. Two
    models are provided:

    - {!single}: a contention bus — any node may transmit at any time,
      one message at a time; a message of size [s] occupies the bus for
      [setup + s / bandwidth]. The conflict-resolution is left to the
      static schedule (non-preemptive exclusive reservations).

    - {!tdma}: a TTP-like time-division bus — time is split into rounds;
      in each round every node owns one slot of fixed length, in a fixed
      order. A node can only start transmitting at the beginning of one
      of its own slot occurrences; a long message spans the same slot of
      consecutive rounds. This is the protocol the paper assumes (TTP). *)

type t

val single : ?setup:float -> bandwidth:float -> unit -> t
(** @raise Invalid_argument if [bandwidth <= 0.] or [setup < 0.]. *)

val tdma :
  ?slot_order:int array -> slot_length:float -> bandwidth:float -> int -> t
(** [tdma ~slot_length ~bandwidth nodes].
    [slot_order] defaults to [0; 1; ...; nodes-1]; it must be a
    permutation of the node ids.
    @raise Invalid_argument on a bad permutation or non-positive
    slot length / bandwidth. *)

val is_tdma : t -> bool

val tx_time : t -> size:float -> float
(** Raw worst-case transmission duration of a message of the given size
    (zero-size messages take zero time). *)

val round_length : t -> float
(** TDMA round length; 0. for a single bus. *)

val slot_length : t -> float
(** TDMA slot length; 0. for a single bus. *)

val slot_offset : t -> node:int -> float
(** Start of [node]'s slot within a TDMA round (slot index times slot
    length), as {!next_window} computes it; 0. for a single bus.
    @raise Invalid_argument on a node the TDMA round has no slot for. *)

val next_window : t -> node:int -> size:float -> earliest:float -> float * float
(** [(start, finish)] of the first transmission opportunity for [node]
    to send a message of [size], with [start >= earliest]. For a single
    bus this is [(earliest, earliest + tx)]. For TDMA, [start] is the
    first occurrence of the node's slot at or after [earliest], and
    [finish] accounts for spanning several rounds when the message
    exceeds the slot payload. *)

val pp : Format.formatter -> t -> unit
