(** Reproduction drivers for every figure of the paper (see DESIGN.md's
    experiment index). Figures 1–6 are the worked examples with concrete
    artifacts; Figures 7 and 8 are the evaluation sweeps. [ftes
    experiment] prints their outputs; tests assert their structural
    properties. *)

type series = {
  x_label : string;
  xs : float list;
  curves : (string * float list) list;
}

val fig1 : unit -> (string * float) list
(** Rollback recovery with checkpointing, the paper's Fig. 1 numbers:
    C1 = 60, alpha = 10, chi = 5, mu = 10 ms. Labeled timings for the
    1-checkpoint/2-checkpoint, no-fault / one-fault cases; the paper's
    headline value is the 130 ms worst case of the 2-checkpoint,
    one-fault scenario. *)

val fig2 : unit -> (string * float) list
(** Active replication vs. primary-backup (C1 = 60, alpha = 10 ms, two
    nodes): completion times with and without a fault. Primary-backup is
    modeled as rollback recovery with a single checkpoint whose backup
    starts after fault detection (paper, Sec. 3.2). *)

val fig4 : unit -> (string * float) list
(** Policy assignment cases of Fig. 4 (C1 = 30, alpha = mu = chi = 5,
    k = 2): worst-case lengths under pure checkpointing (X = 3, R = 2),
    pure replication (3 replicas), and the combined policy (2 replicas,
    R = (0, 1)). *)

val fig5 : unit -> Ftes_ftcpg.Ftcpg.t
(** The FT-CPG of the paper's Fig. 5b (4 processes, k = 2, frozen P3,
    m2, m3): 18 process copies (3 + 6 + 3 + 6), synchronization nodes
    P3^S, m2^S, m3^S. *)

val fig6 : unit -> Ftes_sched.Table.t
(** The schedule tables of Fig. 6, produced by conditional scheduling
    of {!fig5}. *)

val diagnostics_demo :
  ?jobs:int -> unit -> Ftes_sched.Table.t * Ftes_sim.Diagnose.report
(** End-to-end demo of the typed diagnostics: the Fig. 6 tables with a
    deterministic corruption (the latest-starting dependent execution
    pulled to time 0) together with the grouped, shrunk counterexample
    report the validator produces for them. *)

val fig7 :
  ?jobs:int ->
  ?seeds_per_point:int ->
  ?sizes:int list ->
  ?tabu:Ftes_optim.Tabu.options ->
  unit ->
  series
(** The policy-assignment experiment: average percentage deviation of
    the schedule length of MR, SFX and MX from the MXR baseline
    ([ (L_S - L_MXR) / L_S * 100 ], the paper's "MXR is x% better").
    Sizes default to the paper's 20..100 processes; each point averages
    [seeds_per_point] random applications on 2–6 nodes with k = 3..7
    scaled with size (paper, Sec. 6). *)

val fig8 :
  ?jobs:int ->
  ?seeds_per_point:int ->
  ?sizes:int list ->
  ?tabu:Ftes_optim.Tabu.options ->
  unit ->
  series
(** The checkpoint-optimization experiment: average percentage deviation
    of the FTO of the global checkpoint optimization [15] from the
    FTO of the per-process local optima [27]
    ([ (FTO_local - FTO_global) / FTO_local * 100 ]; larger deviation =
    smaller overhead). Sizes default to 40..100 processes. *)

type race = {
  size : int;
  seed : int;
  seq_wall_s : float;  (** Wall clock of the sequential replay arm. *)
  port_wall_s : float;  (** Wall clock of the parallel portfolio arm. *)
  speedup : float;  (** [seq_wall_s /. port_wall_s]. *)
  best_single : float;
      (** Best final length any single member achieved in the
          sequential replay. *)
  best_single_name : string;
  portfolio_length : float;  (** The parallel portfolio's winner length. *)
  winner : string;
  members : (string * float * float) list;
      (** Parallel-arm member outcomes: label, length, wall seconds. *)
  curve : Ftes_optim.Incumbent.entry list;
      (** The parallel arm's anytime incumbent curve. *)
}
(** One head-to-head between the sequential replay of a member list and
    the portfolio racing the {e same} list in parallel. Both arms use
    identical per-member options (members run with inner [jobs = 1]
    either way) and fresh caches, so in deterministic mode the lengths
    match exactly and the speedup measures pure wall-clock
    parallelism. *)

val fig7_portfolio :
  ?jobs:int ->
  ?seeds_per_point:int ->
  ?sizes:int list ->
  ?tabu:Ftes_optim.Tabu.options ->
  ?deadline_s:float ->
  ?exchange:bool ->
  unit ->
  race list
(** Portfolio replay of the Fig. 7 instances: for each (size, seed)
    workload, race the default member list (MXR/MX/SFX/MR/LNS) in
    parallel against its own sequential replay. Defaults: 2 seeds per
    size, sizes 20 and 40, deterministic mode. *)

val fig8_portfolio :
  ?jobs:int ->
  ?seeds_per_point:int ->
  ?sizes:int list ->
  ?tabu:Ftes_optim.Tabu.options ->
  ?deadline_s:float ->
  ?exchange:bool ->
  unit ->
  race list
(** As {!fig7_portfolio} with the checkpointing member (MC-global) in
    the race — the Fig. 8 flavor. *)

val pp_race : Format.formatter -> race -> unit

val transparency_tradeoff :
  ?jobs:int ->
  ?seeds:int ->
  ?levels:float list ->
  ?processes:int ->
  unit ->
  series
(** Ablation of the transparency/performance trade-off (paper, Sec. 3.3:
    "transparency can increase the worst-case delay ... reducing
    performance", and Sec. 5: smaller schedule tables): for each frozen
    fraction in [levels] (messages frozen with that probability,
    processes with half of it), conditionally schedule [seeds] random
    instances and report, relative to the fully non-transparent run of
    the same instance (= 100):

    - the worst-case schedule length,
    - the number of schedule-table entries (the table-size cost the
      designer trades against debuggability).

    Defaults: 5 seeds, levels 0 / 25 / 50 / 75 / 100 %, 8 processes
    (conditional scheduling is exponential in [k]). *)

val soft_utility_vs_k :
  ?jobs:int -> ?seeds:int -> ?ks:int list -> ?processes:int -> unit -> series
(** Ablation for the soft/hard extension ([17]): how much soft utility
    survives as the fault hypothesis hardens. Random applications with
    the downstream half of the graph soft (linear utilities); for each
    [k] the hard subset is scheduled with re-execution and the soft
    processes fill the remaining capacity. Curves (in % of the utility
    bound): fault-free utility and guaranteed utility (worst case under
    [k] faults). Defaults: 5 seeds, k = 0..4, 16 processes. *)

val mk_soft_classes :
  rng:Ftes_util.Rng.t ->
  graph:Ftes_app.Graph.t ->
  horizon:float ->
  soft_prob:float ->
  Ftes_soft.Softsched.class_ array
(** Random soft/hard classification that keeps the constraint "hard
    never depends on soft": a process can only be soft if all its
    successors are; soft processes get linear utilities scaled to
    [horizon]. *)

val k_for_size : int -> int
(** The fault count used for a given application size in {!fig7} /
    {!fig8}: 3 for 20 processes up to 7 for 100 (paper: "between 3 and
    7"). *)

val pp_series : Format.formatter -> series -> unit
