(** Counterexample shrinking and violation triage.

    When a schedule table fails fault-injection validation, the raw
    output is one violation per broken invariant per scenario — on a
    [k]-fault instance the same root cause easily repeats across
    hundreds of scenarios. This module turns that flood into a
    counterexample report in the FTOS-Verify spirit: violations are
    grouped by invariant and guilty vertex, and each group's witness
    scenario is shrunk to a minimal fault subset that still fails, so
    the report shows the {e smallest} scenario reproducing each failure
    mode. *)

val shrink :
  Ftes_sched.Table.t ->
  scenario:Ftes_ftcpg.Cond.guard ->
  Ftes_ftcpg.Cond.guard
(** Greedy literal-dropping 1-minimization: repeatedly drop any single
    literal whose removal keeps the scenario failing (fault literals
    are tried first so the fault count shrinks fastest), until no
    literal can be dropped. The result fails {!Sim.run}, consumes at
    most as many faults as the input, and its literals are a subset of
    the input's. A scenario that does not fail is returned unchanged.
    Cost: one {!Compiled.compile} plus O(literals²) one-row
    {!Compiled.replay_one} runs; the tests check the result against a
    shrink driven by the reference simulator [Sim_oracle.run]. *)

type group = {
  kind : string;  (** {!Violation.kind_label} of every member. *)
  vertex : int option;  (** Guilty vertex (or process) id, if any. *)
  vertex_name : string option;
  count : int;  (** Members across all scenarios. *)
  example : Violation.t;  (** First occurrence, in validation order. *)
  shrunk : Ftes_ftcpg.Cond.guard option;
      (** Minimal failing scenario derived from [example]'s scenario;
          [None] when the group is cross-scenario or shrinking was
          capped. *)
  shrunk_label : string option;
      (** [shrunk] rendered with the table's condition names. *)
}

type report = {
  total : int;  (** Violations across all scenarios. *)
  groups : group list;  (** Largest group first. *)
}

val group_violations : Violation.t list -> (string * int option * Violation.t list) list
(** Group by (kind, guilty vertex), preserving first-occurrence order.
    Exposed for custom aggregation. *)

val of_violations :
  ?max_shrinks:int -> Ftes_sched.Table.t -> Violation.t list -> report
(** Build a report from violations already collected (e.g. a sampled
    validation). At most [max_shrinks] groups (default 8, largest
    first) get a shrunk counterexample — shrinking replays the
    simulator many times. The table is compiled at most once per
    call. *)

val report :
  ?jobs:int -> ?max_shrinks:int -> Ftes_sched.Table.t -> report
(** {!Sim.validate} followed by {!of_violations}. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable counterexample report: one block per group with the
    occurrence count, an example message and the minimal failing
    scenario. *)

val report_to_json : report -> string
(** Machine-readable rendering of the whole report. *)
