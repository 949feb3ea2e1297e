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
    large benchmarks).

    {!tables} is the one road from a design to its tables: the
    synthesis flow, [ftes simulate] and the corpus runner all take it,
    and it alone turns the limits of the table synthesis into values. *)

type limit =
  | Vertices of int  (** The FT-CPG exceeds {!Ftes_ftcpg.Ftcpg.vertex_cap}. *)
  | Tracks of int
      (** The scenario tree exceeds {!Ftes_sched.Conditional.track_cap}. *)
  | Fix_iters of int
      (** The frozen start times did not settle within
          {!Ftes_sched.Conditional.fix_iter_cap} iterations. *)
(** A limit of the table synthesis, with its cap. *)

val limit_to_string : limit -> string
(** One line naming the limit, e.g. ["the FT-CPG exceeds the limit of
    50000 vertices"]. *)

val within_limits : (unit -> 'a) -> ('a, limit) result
(** Run a step that builds an FT-CPG and schedules it, with the limit
    exceptions of {!Ftes_ftcpg.Ftcpg.build} and
    {!Ftes_sched.Conditional.schedule} as [Error]. *)

val tables : ?jobs:int -> Ftes_ftcpg.Problem.t -> (Ftes_sched.Table.t, limit) result
(** The schedule tables S of a fully specified configuration: the
    FT-CPG expansion followed by conditional scheduling ([jobs] is
    handed to {!Ftes_sched.Conditional.schedule}), or the limit that
    stopped them. The table carries its FT-CPG. *)

type no_tables =
  | Not_requested  (** [options.conditional] was off. *)
  | Limit of limit
(** Why a synthesis result has no schedule tables. *)

val no_tables_to_string : no_tables -> string

type t = {
  problem : Ftes_ftcpg.Problem.t;
      (** The optimized configuration: F (policies, checkpoint counts)
          and M (mapping). *)
  estimate : Ftes_sched.Slack.result;
      (** Estimated worst-case schedule length. *)
  tables : (Ftes_sched.Table.t, no_tables) result;
      (** The schedule tables S, or why there are none. *)
  fto : float option;
      (** Fault-tolerance overhead vs. the fault-free baseline, when
          requested. *)
}

type options = {
  strategy : Ftes_optim.Strategy.name;
  tabu : Ftes_optim.Tabu.options;
  conditional : bool;  (** Attempt FT-CPG expansion + conditional
                           scheduling (default true). *)
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
(** Optimize the configuration, estimate it, and build its tables with
    {!tables} when [options.conditional] is on. *)

val schedulable : t -> bool
(** True when the produced tables (or, without tables, the estimate)
    meet the application deadline in every scenario. *)

val validate :
  ?jobs:int ->
  ?mode:Ftes_sim.Sim.mode ->
  t ->
  (Ftes_sim.Violation.t list, no_tables) result
(** Fault-injection validation of the schedule tables: [Ok] with the
    violations found ([Ok []] is a clean verdict), or [Error] when
    there are no tables to validate — the estimate alone cannot be
    simulated. [jobs] and [mode] are forwarded to
    {!Ftes_sim.Sim.validate}; the default [`Explicit] is the packed
    sharded validator, whose result is [jobs]-invariant. [`Symbolic]
    and [`Auto] trade the full enumeration for cube replay with one
    confirmed witness per failing cube (see {!Ftes_sim.Sim.mode}). *)

val diagnose :
  ?jobs:int -> t -> (Ftes_sim.Diagnose.report, no_tables) result
(** Grouped, shrunk counterexample report of {!validate}; [Error] when
    no tables were produced. *)

val pp : Format.formatter -> t -> unit
(** The estimate, the FT-CPG and table summary, and the verdict of
    {!schedulable}; without tables, the verdict is marked as the
    estimate's and names the reason. *)
