(** Large-neighborhood restarts — the portfolio's genuinely non-tabu
    engine.

    Where tabu search walks one small move at a time, LNS alternates
    {e destroy} (perturb several whole processes at once: random policy
    kind, rebuilt copy mapping, copy 0 kicked to a random allowed node)
    and {e repair} (a deterministic policy descent followed by a short
    tabu intensification). The destroy step strikes the estimator's
    critical processes ([Ftes_sched.Slack.critical_processes]), the
    ones whose recovery costs the schedule most; a design with none
    perturbs any process. Like every other optimizer it prices designs
    with the slack estimate alone and never builds a schedule table. *)

type options = {
  seed : int;
  restarts : int;  (** Destroy/repair rounds (default 4). *)
  destroy : int;  (** Processes perturbed per round (default 3). *)
  repair_iterations : int;  (** Tabu budget of each repair (default 30). *)
  sample : int;  (** Tabu candidate sample of each repair. *)
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
    Deterministic for fixed options when [exchange] is off. *)

val slack_targets :
  ?cache:Evalcache.t -> Ftes_ftcpg.Problem.t -> int list
(** The destroy targets: processes by decreasing estimator penalty. *)
