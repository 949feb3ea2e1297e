(** Packed condition vectors: bitset encodings of guards and fault
    scenarios over the conditional vertices of one FT-CPG.

    {!Cond.guard} is a sorted list of literal records — ideal for the
    incremental construction the FT-CPG expansion does, but hostile to
    exhaustive validation: replaying [C(n,k)] scenarios against a
    schedule table performs millions of [Cond.implies] walks, each
    allocating nothing but chasing list spines all over the heap. On an
    OCaml 5 domain pool that pointer churn (and the allocation of the
    scenario lists themselves) serializes workers behind the shared
    major heap and stop-the-world minor collections, which kept
    validation throughput flat across [--jobs] values.

    This module fixes the representation. A {e universe} enumerates the
    conditional vertices of one FT-CPG; against it, a guard or scenario
    packs into two bits per condition (present + value) inside plain
    [int] words:

    - a {e row} is one scenario: an [int array] slice, [words] long;
    - a {e space} is the whole scenario set: one flat [int array]
      arena, scenario [i] at offset [i * words] — no per-scenario
      boxing, cache-line friendly, shareable read-only across domains;
    - a packed {e guard} is a [(mask, bits)] pair per word, so
      "scenario implies guard" is a handful of AND/compare operations.

    Unpacking a row yields the exact {!Cond.guard} the legacy list
    enumeration produced, so everything downstream of validation
    (violation records, diagnostics, renderings) is untouched. *)

type universe
(** The conditional-vertex ids of one FT-CPG, in ascending order, each
    mapped to a packed field index. *)

val universe : int array -> universe
(** [universe vids] builds a universe over condition ids [vids], which
    must be strictly ascending; raises [Invalid_argument] naming the
    offending condition id otherwise. *)

val fields_per_word : int
(** Packed fields per word (31; two bits per field inside a 63-bit
    immediate int). Field index [idx] lives in word
    [idx / fields_per_word] at shift [2 * (idx mod fields_per_word)]. *)

val size : universe -> int
(** Number of conditions in the universe. *)

val words : universe -> int
(** Words per packed row ([⌈size / 31⌉], at least 1). *)

val cond_of_index : universe -> int -> int
(** The condition (vertex) id packed at a field index. *)

val index_of_cond : universe -> int -> int option
(** The field index of a condition id, if it is in the universe. *)

(** {1 Packed guards} *)

type guard
(** A conjunction of condition literals in [(mask, bits)] form.
    Guards over conditions outside the universe pack to an
    unsatisfiable guard — no complete scenario implies them, matching
    [Cond.implies] on the list representation. *)

val pack_guard : universe -> Cond.guard -> guard
(** Pack a list guard. Total: out-of-universe literals yield the
    never-implied guard (see {!guard}). *)

val guard_true : universe -> guard
(** The empty conjunction — implied by every row. *)

val guard_words : guard -> int array * int array
(** The packed [(mask, bits)] word pairs of a guard. The arrays are the
    guard's own storage — treat them as read-only. This is the raw
    surface the symbolic cube backend ({!Ftes_sim.Symbolic}) works
    over; everything else should go through {!row_implies} /
    {!implies}. *)

(** {1 Rows (single scenarios)} *)

type row = int array
(** Scratch row, [words u] long. Invariant: a value bit is set only if
    the matching presence bit is. *)

val create_row : universe -> row
val clear_row : row -> unit

val set : universe -> row -> int -> bool -> unit
(** [set u row idx fault] assigns condition {e index} [idx]. *)

val unset : universe -> row -> int -> unit

val row_implies : row -> guard -> bool
(** Whether every literal of the guard holds in the row. *)

val row_fault_count : row -> int
(** Number of positive (fault) literals in the row. *)

val guard_of_row : universe -> row -> Cond.guard
(** Unpack; literal order matches the sorted {!Cond.guard} invariant. *)

(** {1 Scenario arenas} *)

type store
(** Growable arena of rows. *)

val store : universe -> store
val append : store -> row -> unit

type space = private {
  u : universe;
  words : int;
  data : int array;  (** Flat arena: row [i] at [i * words]. *)
  count : int;
}

val freeze : store -> space
(** The store must not be appended to afterwards. *)

val of_guards : universe -> Cond.guard list -> space
(** Pack a list of guards into a fresh arena (used for sampled
    validation subsets). Guards must be within the universe. *)

val singleton : universe -> row -> space
(** A one-scenario space holding a copy of [row] — the bridge from a
    symbolically extracted witness back to the explicit replay path. *)

val count : space -> int

val implies : space -> int -> guard -> bool
(** [implies sp i g]: does scenario [i] imply packed guard [g]? *)

val fault_count : space -> int -> int

val guard_at : space -> int -> Cond.guard
(** Unpack scenario [i] to the legacy list representation. *)
