(** Large-neighborhood restarts driven by violation diagnostics — the
    portfolio's genuinely non-tabu engine.

    Where tabu search walks one small move at a time, LNS alternates
    {e destroy} (perturb several whole processes at once: random policy
    kind, rebuilt copy mapping, copy 0 kicked to a random allowed node)
    and {e repair} (a deterministic policy descent followed by a short
    tabu intensification). The destroy step is {e targeted}: when the
    current design's FT-CPG is small enough to expand and its schedule
    table fails fault-injection validation, the shrunk counterexamples
    of [Ftes_sim.Diagnose] name the guilty processes — the PR 2
    feedback loop closed into synthesis. For clean or inexpansible
    designs it falls back to the estimator's critical processes
    ([Ftes_sched.Slack.critical_processes]). *)

type options = {
  seed : int;
  restarts : int;  (** Destroy/repair rounds (default 4). *)
  destroy : int;  (** Processes perturbed per round (default 3). *)
  repair_iterations : int;  (** Tabu budget of each repair (default 30). *)
  sample : int;  (** Tabu candidate sample of each repair. *)
  diag_max_vertices : int;
      (** FT-CPG expansion budget of the diagnostics probe; larger
          designs skip the probe (default 2000). *)
  diag_max_violations : int;
      (** Validation stops after this many violations (default 48). *)
  cache : Evalcache.t option;
  stop : (unit -> bool) option;  (** Polled between rounds and inside
                                     the repair search. *)
  shared : Incumbent.handle option;
  exchange : bool;  (** As in [Tabu.options]. *)
}

val default_options : options

val optimize :
  options -> Ftes_ftcpg.Problem.t -> Ftes_ftcpg.Problem.t * float
(** Best design found and its estimated fault-tolerant schedule length.
    Deterministic for fixed options when [exchange] is off. Within one
    run, {!diagnostic_targets} is computed once per design signature
    and reused. *)

val diagnostic_targets :
  ?max_vertices:int ->
  ?max_violations:int ->
  Ftes_ftcpg.Problem.t ->
  int list
(** The process ids the diagnostics name as guilty for the design:
    expand the FT-CPG (within [max_vertices]), schedule, validate
    (first [max_violations] violations), shrink, and map both the
    guilty vertices and the fault literals of the shrunk scenarios back
    to processes. [[]] when the design expands too large, cannot be
    scheduled, or validates clean. Exposed for the tests. *)

val slack_targets :
  ?cache:Evalcache.t -> Ftes_ftcpg.Problem.t -> int list
(** Fallback targets: processes by decreasing estimator penalty. *)
