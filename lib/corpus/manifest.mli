(** The corpus manifest: the checked-in oracle every run is gated
    against.

    One entry per instance: its budget tier, check kind, pinned
    schedule length, pinned result digest and validation verdict.
    [corpus/manifest.json] is (re)written by [ftes corpus pin] and read
    by [ftes corpus verify]; parse and print round-trip exactly, so the
    file diffs cleanly under version control. *)

type entry = {
  id : string;
  tier : string;  (** "smoke" | "standard" | "heavy". *)
  kind : string;  (** {!Instance.check_kind}. *)
  length : float;  (** Pinned schedule length (tables), estimator
                       length, or hard-subset length (soft). *)
  digest : string;  (** MD5 of the rendered result. *)
  verdict : string;  (** "clean-exhaustive" | "clean-sampled" |
                         "estimate-only" | "soft". *)
}

type t = { version : int; entries : entry list }

val schema_version : int

val empty : t
val find : t -> string -> entry option
val ids : t -> string list

val to_string : t -> string
(** Render as JSON (stable field order, one entry per line). *)

val of_string : string -> (t, string) result
(** Parse what {!to_string} produces (tolerating whitespace and field
    reordering). Errors carry a human-readable reason. *)

val load : string -> (t, string) result
val save : string -> t -> unit

(** {1 Minimal JSON toolkit}

    The repo carries no JSON library; the hand-rolled value type and
    parser behind the manifest are exposed so that the event-stream
    tests can parse NDJSON lines and Chrome traces with them. *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

val json_of_string : string -> (json, string) result
(** Parse one complete JSON value (tolerating surrounding whitespace);
    rejects trailing content, nesting deeper than 512 levels and
    numbers that overflow to infinity. Total: never raises. *)
