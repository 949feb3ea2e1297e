(** Mutable binary-heap priority queue, minimum-first with respect to a
    user-supplied comparison: the ready queue of [Slack_oracle] and the
    pending-condition queue of [Conditional_oracle]. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty queue; the smallest element w.r.t. [cmp] is served first. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty queue. *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

val to_sorted_list : 'a t -> 'a list
(** Drains a copy of the queue; the queue itself is unchanged. *)

val iter_unordered : ('a -> unit) -> 'a t -> unit
(** Iterate in unspecified order without draining. *)
