(** Textual format for synthesis instances.

    A document bundles an application (processes, messages, overheads,
    transparency, deadline/period), a platform (nodes, bus), the WCET
    table and the fault hypothesis [k] — everything needed to build a
    [Ftes_ftcpg.Problem.t] except the optimized configuration.

    The format is line-oriented; [#] starts a comment. Example:

    {v
    # cruise-control instance
    k 2
    deadline 300
    period 300
    nodes 2
    bus tdma slot 10 bandwidth 1

    process P1 alpha 10 mu 10 chi 5
    process P2 alpha 10 mu 10 chi 5 frozen
    process P3 alpha 10 mu 10 chi 5 release 20 local-deadline 200

    message m1 from P1 to P2 size 4
    message m2 from P1 to P3 size 4 frozen

    wcet P1 20 30
    wcet P2 40 60
    wcet P3 60 X
    v}

    Every [process] must have a [wcet] row with one entry per node ([X]
    marks a mapping restriction). Order of sections is free, except that
    [message] and [wcet] lines must follow the [process] lines they
    reference. *)

type t = {
  app : Ftes_app.App.t;
  arch : Ftes_arch.Arch.t;
  wcet : Ftes_arch.Wcet.t;
  k : int;
}

type error =
  | Syntax of { line : int; message : string }
      (** The document is malformed or describes an invalid instance.
          [line] is the 1-based line of the offending directive; an
          error about a directive missing altogether points at the
          document's last line. *)
  | Unreadable of string  (** The file could not be read. *)

val of_string : string -> (t, error) result
(** Never raises: every malformed input, including values the model
    rejects (a negative overhead, a non-positive bus parameter, a
    negative [k], a message cycle), is a [Syntax] error. *)

val to_string : t -> string
(** Round-trips: [of_string (to_string d)] is structurally equal to
    [d]. *)

val load : string -> (t, error) result
(** Read a document from a file path. Never raises. *)

val save : string -> t -> unit

val to_problem :
  ?policies:Ftes_app.Policy.t array ->
  ?mapping:Ftes_ftcpg.Mapping.t ->
  t ->
  Ftes_ftcpg.Problem.t
(** Defaults: all-re-execution policies and the fastest mapping. *)

val equal : t -> t -> bool
(** Structural equality (used by the round-trip tests). *)
