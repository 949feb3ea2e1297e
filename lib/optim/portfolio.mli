(** Parallel strategy portfolio: race diverse optimizer configurations
    on the domain pool, share one {!Evalcache}, broadcast the best
    incumbent, return an anytime result (ROADMAP item 3).

    A {e member} is one configuration — an engine (a Fig. 7/8 strategy
    or the {!Lns} large-neighborhood restart engine) plus its seed,
    tabu tenure and neighborhood sample size. {!run} computes the
    fault-free baseline once, launches every member concurrently via
    [Ftes_util.Par.map] on up to [jobs] domains (the calling domain runs
    members too; LNS members are dispatched first, because one is the
    slowest member of nearly every race), and every member shares:

    - one universe-pinned {!Evalcache} — MXR's descent phases revisit
      designs that MX's tabu has already priced;
    - one {!Incumbent} cell — each local improvement is published with
      the member's label; with [exchange] on, members also read it to
      tighten their aspiration thresholds.

    {b Modes.} With [deadline_s = None] and [exchange = false]
    (deterministic mode) every member runs its fixed iteration budget
    with no steering reads, so the member outcomes — and the winner,
    chosen by strict length with earliest-member tie-break — are
    invariant across [jobs] (pinned by [test/test_portfolio.ml]). With
    a deadline and/or exchange the run is {e anytime}: every member
    polls the wall clock, the incumbent {!result.curve} improves
    monotonically until the deadline, and the trajectory legitimately
    depends on worker timing. *)

type engine =
  | Strategy of Strategy.name
  | Lns of { restarts : int; destroy : int }

type member = {
  label : string;  (** Unique display name, e.g. ["MXR#0"]. *)
  engine : engine;
  seed : int;
  tenure : int;
  sample : int;
}

type member_outcome = {
  member : member;
  length : float;  (** Final estimated FT schedule length. *)
  wall_s : float;  (** The member's own wall clock. *)
  problem : Ftes_ftcpg.Problem.t;
}

type options = {
  jobs : int;
      (** Concurrent members: domains racing, the caller included, and
          clamped to the core count by [Ftes_util.Par]. *)
  deadline_s : float option;
      (** Wall-clock budget for the whole race; [None] (default) runs
          every member's full iteration budget. *)
  exchange : bool;
      (** Read the shared incumbent for aspiration (default [false];
          see [Tabu.options.exchange]). *)
  cache : Evalcache.t option;
      (** Shared eval cache; a fresh one is created when [None]. *)
  tabu : Tabu.options;
      (** Base search options (iterations, stall limit, policy kinds,
          ...). Per-member seed/tenure/sample override it; [jobs] is
          forced to 1 inside members and [cache]/[stop]/[shared] are
          managed by the portfolio. *)
}

type result = {
  winner : member_outcome;
  nft : float;  (** Fault-free baseline, computed once for the race. *)
  fto : float;  (** Winner's fault-tolerance overhead vs [nft]. *)
  curve : Incumbent.entry list;
      (** Anytime quality-vs-time curve: every incumbent improvement
          across all members, oldest first, strictly decreasing cost. *)
  members : member_outcome list;  (** In member order. *)
  wall_s : float;
  cache_stats : Evalcache.stats;
}

val default_options : options

val default_members :
  ?seed:int -> ?sample:int -> ?checkpointing:bool -> unit -> member list
(** The standard race: MXR, MX, SFX, MR and the LNS restart engine,
    diversified over seed, tenure and sample; [checkpointing] adds an
    MC-global member (the Fig. 8 flavor). *)

val run :
  ?opts:options -> ?members:member list -> Strategy.inputs -> result
(** Race the members ([default_members] when omitted or empty).
    @raise Invalid_argument only from degenerate inputs. *)

val engine_to_string : engine -> string
val pp_result : Format.formatter -> result -> unit
