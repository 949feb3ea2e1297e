(** Fault-injection simulation of synthesized schedule tables.

    The paper's run-time architecture executes the schedule tables with
    a non-preemptive scheduler on every node: activations fire at their
    table times as condition values become known, condition values are
    broadcast on the bus, and recoveries follow the conditional columns.
    Physical fault injection is replaced by scenario injection — a
    transient fault only flips a condition outcome at the end of the
    affected execution, so executing the table under an injected
    scenario exercises exactly the recovery paths (see DESIGN.md,
    substitution table).

    The simulator replays a {!Ftes_sched.Table.t} under one fault
    scenario and independently re-checks the distributed-execution
    invariants the scheduler is supposed to guarantee:

    - every FT-CPG vertex reachable in the scenario has exactly one
      applicable activation, selected like the run-time scheduler does
      (the most specific table column whose guard holds) — and, per
      item, no two maximally specific columns disagree on the time
      (execution {e and} broadcast columns);
    - causality: an activation never precedes the completion of its
      predecessors in that scenario;
    - distributed knowledge: an activation whose guard tests a remote
      condition never precedes the condition broadcast;
    - resource exclusivity: no two executions overlap on a CPU, no two
      transmissions overlap on the bus (per TDMA lane);
    - transparency: frozen vertices start at the same time in every
      scenario;
    - deadlines: global and local, in every scenario.

    Findings are reported as typed {!Violation.t} records (see
    {!Diagnose} for shrinking and grouping). *)

type event = {
  time : float;
  what : string;  (** Human-readable trace line. *)
}

type outcome = {
  scenario : Ftes_ftcpg.Cond.guard;
  makespan : float;
  events : event list;  (** Chronological trace. *)
  violations : Violation.t list;  (** Empty iff the scenario executed
                                      correctly. *)
}

val run : Ftes_sched.Table.t -> scenario:Ftes_ftcpg.Cond.guard -> outcome
(** Replay one scenario. The scenario may be partial (as the shrunk
    scenarios of {!Diagnose} are): a vertex exists, and a column
    applies, when the scenario implies its guard. The table is compiled
    and the scenario packed as the one row of a space for {!replay}.
    The tests hold it to the list-walking reference simulator
    [Sim_oracle.run] on complete and partial scenarios.
    @raise Invalid_argument if the scenario names a vertex that is not
    a condition of the table's FT-CPG. *)

val replay : Compiled.t -> Ftes_ftcpg.Condvec.space -> int -> outcome
(** [replay c sp i] replays row [i] of a space over [c]'s universe with
    {!Compiled.replay_one}, the replay {!validate} runs on every row,
    and builds the trace from the activation and broadcast columns it
    chose. Events are sorted by time; equal times keep broadcasts
    before activations, each in descending vertex order. For callers
    that replay many rows of one table without recompiling it. *)

type mode = [ `Explicit | `Symbolic | `Auto ]
(** Validation backend.

    - [`Explicit] (the default): replay every scenario of the packed
      arena — the byte-identical legacy behavior.
    - [`Symbolic]: replay cubes of scenarios through the same compiled
      table ({!Symbolic}); the verdict (clean / not clean) is always
      identical to explicit mode, every reported violation is an
      explicitly confirmed witness, but a failing table is reported
      through one witness scenario per failing cube instead of the
      full enumeration. Scales with the table's guard structure rather
      than with [C(n, k)] — transparent tables validate in a handful
      of cubes at any [k].
    - [`Auto]: [`Symbolic] when the scenario count is provably known
      in closed form ({!Symbolic.frozen_scenario_count}) and exceeds
      65,536; [`Explicit] otherwise. *)

val validate :
  ?jobs:int ->
  ?mode:mode ->
  Ftes_sched.Table.t ->
  Violation.t list
(** Run every fault scenario (exhaustive — exponential in [k] in
    explicit mode) plus the cross-scenario transparency check; returns
    all violations.

    In explicit mode, scenarios are replayed from the packed arena
    ({!Ftes_ftcpg.Ftcpg.scenario_space}) against a pre-compiled form of
    the table, sharded into coarse contiguous ranges across [jobs]
    domains ([Ftes_util.Par.default_jobs ()] when omitted; [1] is the
    exact sequential code path) with per-range scratch state. The
    per-range violations are merged in scenario order, so the result is
    byte-identical for every [jobs] value — and byte-identical to one
    reference [Sim_oracle.run] per scenario followed by
    {!frozen_start_violations}, the composition the tests keep as
    their oracle ([test/sim_oracle.ml]). *)

val validate_sampled :
  ?jobs:int ->
  rng:Ftes_util.Rng.t ->
  samples:int ->
  Ftes_sched.Table.t ->
  Violation.t list
(** Like {!validate} on a random subset of scenarios (for larger
    instances). The fault-free scenario is always included, so a
    violation-free sampled run at least certifies the nominal
    schedule. Every reported violation is one {!validate} would also
    report — sampling only reduces coverage, never adds noise. *)

val frozen_start_violations : Ftes_sched.Table.t -> Violation.t list
(** Only the cross-scenario transparency check. *)

val pp_outcome : Format.formatter -> outcome -> unit
