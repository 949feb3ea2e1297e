(** End-to-end synthesis of fault-tolerant embedded systems — the
    paper's top-level flow (Sec. 6).

    Given an application A, a platform N with a bus B, and the fault
    hypothesis [k], determine the system configuration
    ψ = 〈F, M, S〉:

    + the fault-tolerance policy assignment F = 〈P, Q, R, X〉 (which
      processes are checkpointed, replicated or both; replica counts;
      recovery budgets; checkpoint counts),
    + the mapping M of every process and replica to a node,
    + the set S of fault-tolerant schedule tables.

    Policy assignment and mapping are optimized with the strategies of
    [Ftes_optim.Strategy] against the scalable schedule-length
    estimator; the final schedule tables are produced by conditional
    scheduling of the FT-CPG, with the estimator's configuration
    retained even when the FT-CPG is too large to expand (the paper's
    own experiments likewise report estimator-driven results for the
    large benchmarks). *)

type t = {
  problem : Ftes_ftcpg.Problem.t;
      (** The optimized configuration: F (policies, checkpoint counts)
          and M (mapping). *)
  estimate : Ftes_sched.Slack.result;
      (** Estimated worst-case schedule length. *)
  ftcpg : Ftes_ftcpg.Ftcpg.t option;
      (** The expanded FT-CPG, when within the expansion budget. *)
  table : Ftes_sched.Table.t option;
      (** The schedule tables S, when conditional scheduling was
          feasible. *)
  fto : float option;
      (** Fault-tolerance overhead vs. the fault-free baseline, when
          requested. *)
}

type options = {
  strategy : Ftes_optim.Strategy.name;
  tabu : Ftes_optim.Tabu.options;
  conditional : bool;  (** Attempt FT-CPG expansion + conditional
                           scheduling (default true). *)
  max_vertices : int;  (** FT-CPG expansion budget. *)
  sched_jobs : int;  (** Domains on which the conditional scheduler's
                         table assembly collapses its slots (default
                         1 = sequential; tables are identical for any
                         value). *)
  compute_fto : bool;  (** Also optimize the fault-free baseline to
                           report the FTO (default false). *)
  checkpointing : bool;  (** Additionally optimize checkpoint counts
                             (global optimization) on the final
                             configuration (default false). *)
  portfolio : Ftes_optim.Portfolio.options option;
      (** When set, optimize with the parallel strategy portfolio
          instead of the single [strategy]: the default member race
          (which includes the MC-global flavor when [checkpointing] is
          on) runs under these options with [tabu] as the base search
          configuration, and the winner's design flows into the
          estimate and schedule tables. The FTO is always reported —
          the portfolio computes the fault-free baseline once for the
          whole race (default [None]). *)
}

val default_options : options

val synthesize :
  ?options:options ->
  app:Ftes_app.App.t ->
  arch:Ftes_arch.Arch.t ->
  wcet:Ftes_arch.Wcet.t ->
  k:int ->
  unit ->
  t

val of_problem :
  ?conditional:bool ->
  ?max_vertices:int ->
  ?sched_jobs:int ->
  Ftes_ftcpg.Problem.t ->
  t
(** Schedule a fully specified configuration (no optimization). *)

val schedulable : t -> bool
(** True when the produced tables (or, failing that, the estimate) meet
    the application deadline in every scenario. *)

val validate :
  ?jobs:int -> ?mode:Ftes_sim.Sim.mode -> t -> Ftes_sim.Violation.t list
(** Fault-injection validation of the schedule tables (empty when no
    tables were produced — the estimate alone cannot be simulated).
    [jobs] and [mode] are forwarded to {!Ftes_sim.Sim.validate}; the
    default [`Explicit] is the packed sharded validator, whose result
    is [jobs]-invariant. [`Symbolic] and [`Auto] trade the full
    enumeration for cube replay with one confirmed witness per failing
    cube (see {!Ftes_sim.Sim.mode}). *)

val diagnose : ?jobs:int -> t -> Ftes_sim.Diagnose.report option
(** Grouped, shrunk counterexample report of {!validate}; [None] when
    no tables were produced. *)

val pp : Format.formatter -> t -> unit
