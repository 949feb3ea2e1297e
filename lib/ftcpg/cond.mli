(** Fault conditions and guards (paper, Sec. 5.1).

    A fault occurrence during the execution of a conditional FT-CPG node
    is captured as a boolean condition: true ("F") if the fault happens,
    false ("not F") otherwise. Conditions are identified by the integer
    id of the FT-CPG vertex that produces them.

    A {e guard} is a conjunction of condition literals — exactly the
    column headers of the paper's schedule tables (Fig. 6). The empty
    guard is [true]. *)

type literal = { cond : int; fault : bool }

type guard
(** A satisfiable conjunction of literals, normalized (sorted by
    condition id, no duplicates). *)

val true_ : guard
(** The empty conjunction. *)

val of_literals : literal list -> guard option
(** [None] if the literals are contradictory. *)

val literals : guard -> literal list
(** Ascending by condition id. *)

val add : guard -> literal -> guard option
(** [None] if the literal contradicts the guard. *)

val add_exn : guard -> literal -> guard
(** @raise Invalid_argument on contradiction. *)

val value : guard -> int -> bool option
(** The literal value the guard assigns to a condition, if any. *)

val compatible : guard -> guard -> bool
(** True when the two guards can hold simultaneously (no contradictory
    literal). *)

val conjoin : guard -> guard -> guard option
(** Conjunction; [None] if incompatible. *)

val remove : guard -> int -> guard
(** The guard without its literal on a condition (the guard itself when
    it does not mention the condition). The result shares the tail
    after the removed literal. *)

val implies : guard -> guard -> bool
(** [implies g1 g2] when every scenario satisfying [g1] satisfies [g2],
    i.e. the literals of [g2] are a subset of those of [g1]. *)

val fault_count : guard -> int
(** Number of positive (fault) literals — the fault budget the guard
    consumes. *)

val size : guard -> int
val equal : guard -> guard -> bool
val compare : guard -> guard -> int
val pp : ?name:(int -> string) -> unit -> Format.formatter -> guard -> unit
(** Renders e.g. ["FP1 & !FP2"]; [true] for the empty guard. [name]
    renders a condition id (defaults to ["c<id>"]). *)

val to_string : ?name:(int -> string) -> guard -> string
