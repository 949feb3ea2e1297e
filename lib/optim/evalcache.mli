(** Domain-safe memoization of design evaluations ([Ftes_sched.Slack]).

    The design-space exploration layers — tabu search, steepest descent,
    checkpoint optimization, the Fig. 7 strategies — spend almost all of
    their time re-running [Slack.estimate] on configurations the search
    has already priced: moves perturb a single process, stalled
    iterations redraw moves from an unchanged configuration, and the MXR
    strategy re-visits the same assignments across its phases. The cache
    keys each evaluation by a canonical {e design signature} — the
    mapping vector, the per-process policy (recovery and checkpoint plan
    of every copy), the fault hypothesis [k] and the [ft] objective
    flag — so a repeated configuration returns its memoized
    [Slack.result] instead of re-scheduling. Entries hold the figures
    and penalties only: they come from [Slack.estimate], which builds
    no placement lists.

    {b Determinism.} [Slack.estimate] is a pure function of the
    signature (given a fixed application / architecture / WCET table),
    so a cached run is bit-identical to an uncached one: the cache is a
    pure performance layer, pinned by the tests in
    [test/test_evalcache.ml].

    {b Domain safety.} The store is lock-striped: signatures are hashed
    (FNV-style) onto a fixed array of shards, each guarded by its own
    [Mutex], so concurrent lookups from the [Ftes_util.Par] domain pool
    contend only when they hash to the same shard. Evaluations always
    run outside the locks.

    {b Scope.} One cache serves one synthesis instance: the first
    problem evaluated pins the cache's {e universe} (its application,
    architecture and WCET table, compared physically). A problem from a
    different universe bypasses the cache — counted in
    [stats.bypasses] — and is evaluated directly, so sharing a cache too
    widely degrades performance, never correctness. *)

type t

type stats = {
  lookups : int;  (** Cacheable evaluation requests (hits + misses). *)
  hits : int;
  misses : int;
  inserts : int;
  bypasses : int;  (** Requests from a foreign universe, not cached. *)
  entries : int;  (** Entries currently stored. *)
}

val create : unit -> t
(** An empty cache. Entries are never evicted: one search stores a few
    thousand designs at most. *)

val signature : ?ft:bool -> Ftes_ftcpg.Problem.t -> string
(** The canonical structural key: [ft] flag ⊕ [k] ⊕ per-process policy
    plans ⊕ mapping vector. Injective over everything [Slack.estimate]
    reads from the configuration (two problems of the same universe get
    equal signatures iff the evaluator cannot distinguish them). *)

val evaluate : ?ft:bool -> t -> Ftes_ftcpg.Problem.t -> Ftes_sched.Slack.result
(** Memoized [Ftes_sched.Slack.estimate ?ft]: [evaluate]'s figures and
    penalties, with empty placement lists. A problem from a foreign
    universe gets the same, uncached. *)

val length : ?ft:bool -> t -> Ftes_ftcpg.Problem.t -> float
(** Memoized [Ftes_sched.Slack.length ?ft] (same cache entries as
    {!evaluate}: the full result is stored either way). *)

val stats : t -> stats

val hit_rate : stats -> float
(** [hits / lookups] in [0, 1]; [0.] before the first lookup. *)

val clear : t -> unit
(** Drop every entry, reset all counters and unpin the universe. *)

val pp_stats : Format.formatter -> stats -> unit
