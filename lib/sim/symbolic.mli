(** Symbolic scenario-family validation.

    Exhaustive explicit validation ({!Sim.validate}) replays every
    complete fault scenario of the FT-CPG — [C(n, k)]-many — against
    the compiled schedule table. This backend replays {e cubes}: sets
    of condition vectors that fix a subset of conditions to
    {absent, present no-fault, present fault} and leave the rest free,
    over the same {!Compiled} table form.

    A cube splits (three ways, on one condition) only when a schedule
    column guard actually distinguishes its members {e relative to the
    vertex existence guard}; existence guards themselves are never
    split on — every check is instead gated on a satisfiability query
    over the scenario family ({!Ftes_ftcpg.Ftcpg.scenario_family}),
    whose witness row doubles as the concrete counterexample. Cleared
    cubes enter an antichain (generalized to the fields the replay
    actually read, when sound) that prunes subsumed pending work.

    Guarantees, pinned by the test suite:

    - {b Verdict equivalence}: clean here iff clean under
      {!Sim.validate}, for every table.
    - {b Witness soundness}: every returned violation comes from an
      explicit {!Compiled.replay_one} of a concretized witness
      scenario, so it is a genuine explicit violation (same constructor
      values and rendering).
    - {b Determinism}: verdict, witnesses and violation order are
      identical for every [jobs] value.

    The returned list is {e per witness scenario}, not the full
    explicit enumeration: a failing cube is reported through one
    concretized member (minimal-fault), where explicit mode would list
    every failing scenario. On transparent (fully frozen) tables the
    clean case typically costs a single cube replay with no splits,
    independent of the scenario count — that is the whole point. *)

type stats = {
  cubes : int;  (** Cubes replayed (excluding subsumption-pruned). *)
  splits : int;  (** Cube splits (each spawns three children). *)
  subsumed : int;  (** Pending cubes pruned by the antichain. *)
  empties : int;
      (** Cubes dropped because no complete scenario lies inside them
          (split children can be infeasible; feasible leaves partition
          the scenario set, which bounds the total replay count). *)
  sat_queries : int;  (** Family satisfiability queries consulted. *)
  witnesses : int;  (** Failing cubes concretized to a witness. *)
  antichain : int;  (** Final antichain size. *)
  rounds : int;  (** Worklist rounds (parallel fan-out barriers). *)
}

val check : ?jobs:int -> Ftes_sched.Table.t -> Violation.t list
(** Validate the table symbolically. [jobs] parallelizes cube replay
    within each worklist round (result is [jobs]-invariant). Does
    {e not} include {!Sim.frozen_start_violations} — callers go
    through {!Sim.validate} with [~mode:`Symbolic] for the composed
    check. *)

val check_stats : ?jobs:int -> Ftes_sched.Table.t -> Violation.t list * stats
(** {!check} plus the work counters (also published as
    [sim.symbolic.*] telemetry). *)

val frozen_scenario_count : Ftes_ftcpg.Ftcpg.t -> float option
(** Exact size of the complete-scenario set, computed in closed form
    when the FT-CPG's conditions form disjoint frozen re-execution
    chains (each condition guarded by exactly the fault literals of
    its chain prefix). [None] when the structure does not match — the
    count is only claimed when provably exact. This is what lets
    [`Auto] mode and the corpus pick the symbolic backend without
    enumerating the arena first. *)
