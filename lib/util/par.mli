(** Domain-pool parallel execution with deterministic ordered merge.

    The validator replays every fault scenario independently, the tabu
    search evaluates every candidate move independently, the
    experiment sweeps synthesize every workload instance independently,
    and schedule-table assembly collapses every slot independently —
    all embarrassingly parallel. This module fans such task lists out
    over a persistent pool of OCaml 5 domains and merges the results
    {e by input index}, so the output is byte-identical to the
    sequential run regardless of how the domains interleave.

    Worker domains are spawned lazily on first use and parked on a
    condition variable between calls, so the per-call dispatch cost is
    a mutex round-trip rather than a [Domain.spawn]/[Domain.join]
    (milliseconds). This matters in the optimization inner loop: once
    the evaluation cache absorbs most candidate evaluations, each
    fan-out runs microseconds of real work, and a spawn-per-call pool
    would cost more than it saves. [~jobs] remains an upper bound on
    the domains working on any one call even after the pool has grown
    larger for another. The pool is torn down by an [at_exit] hook.

    {b Domains used.} A call runs on [min jobs tasks cores] domains,
    where [cores] is [Domain.recommended_domain_count ()]: never more
    domains than tasks, and never more than the machine runs at once,
    so [~jobs:16] on a 2-core host uses 2. The calling domain is one of
    them — it pulls tasks like the [jobs - 1] pool workers — and the
    pool therefore never holds more than [cores - 1] workers. While
    recording is on, a call that asks for more than one domain sets the
    gauges [par.jobs_requested] and [par.jobs_effective].

    {b Live records.} Once the caller runs out of tasks it waits for
    the workers' last ones; while recording is on it drains the event
    stream about every 2 ms of that wait, so a long task's records
    (portfolio members, say) reach the sinks before the call returns.
    With recording off the wait reads one atomic per spin.

    Scheduling is dynamic (workers pull the next task from a shared
    atomic counter), which balances uneven task costs — fault scenarios
    and candidate configurations vary widely in evaluation time.

    Nesting is safe but never multiplies domains: a [Par] call issued
    from inside a worker runs sequentially in that worker. Callers can
    therefore parallelize an outer sweep whose tasks themselves call
    parallel validation without oversubscribing the machine.

    One effective domain is the exact sequential code path
    ([List.map] / [List.init]); omitting [jobs]
    uses {!default_jobs}. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size used when
    [?jobs] is omitted. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed on up to [jobs]
    domains (clamped as above). Results are merged in input order. If any [f x] raises,
    the first exception (in scheduling order) is re-raised in the
    calling domain after the pool drains. *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a list
(** [init ~jobs n f] is [List.init n f] with [f] applied on the pool. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map}. *)

val map_ranges :
  ?jobs:int -> ?chunks_per_job:int -> int -> (int -> int -> 'a) -> 'a list
(** [map_ranges ~jobs n f] splits the index space [0, n)] into coarse
    contiguous ranges — about [chunks_per_job] (default 4) per domain,
    balanced to within one item — and applies [f lo hi] to each range
    on the pool. Results come back in range order, so
    [List.concat (map_ranges n f)] over a range-local fold is
    byte-identical to the sequential left-to-right fold regardless of
    [jobs]. This is the batch-grained alternative to {!map} for hot
    loops where a task per item is too fine: each range amortizes
    per-task dispatch and lets the worker keep range-local scratch
    state. [n <= 0] yields [[]]; one effective domain (or a nested
    call from a worker) runs [f 0 n] sequentially. *)

val in_worker : unit -> bool
(** True when called from inside a [Par] worker domain (where nested
    [Par] calls run sequentially). Exposed for tests and diagnostics. *)

val pool_size : unit -> int
(** Number of parked worker domains currently alive (excluding the
    calling domain); at most [Domain.recommended_domain_count () - 1].
    Also published as the [par.pool_size] telemetry
    gauge on every fan-out. *)

val shutdown : unit -> unit
(** Join every parked worker domain. Call from a test or bench main
    before exit so the run does not leak parked domains; an [at_exit]
    hook calls it as a backstop. The pool re-arms itself: a parallel
    call issued after [shutdown] lazily respawns workers. *)
