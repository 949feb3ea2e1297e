(** Spans, counters, gauges and latency histograms on the {!Events}
    stream, with a human summary tree, a Chrome trace-event exporter and
    metrics snapshots.

    The synthesis flow is a multi-phase pipeline — FT-CPG generation,
    policy/mapping optimization, conditional scheduling, fault-injection
    validation — fanned out over the {!Par} domain pool. Every phase
    opens a span, hot components bump counters (atomic ints), and the
    pool reports fan-out sizes and queue waits into histograms.

    {b One substrate.} Spans are records in the {!Events} rings, so the
    switch, the clock, the drop policy and the drain are those of
    {!Events}: turn recording on with [Events.enable] and open spans
    with [Events.with_span]. Counters, gauges and histograms are atomic
    cells outside the rings, recorded while that one switch is on; the
    metric exporters read them directly. The span tree and the Chrome
    trace are folds over the span records {!span_sink} kept. Export
    after a run, while the [Par] pool is idle. *)

val enabled : unit -> bool
(** [Events.enabled]: the same one switch, read under either name. *)

val reset : unit -> unit
(** [Events.reset], then forget the kept span records and zero every
    counter, gauge and histogram (registrations survive). Call only
    while no other domain is recording — i.e. between [Par] fan-outs. *)

val span_sink : Events.event -> unit
(** An [Events] sink that keeps the span records it sees for {!dump},
    {!pp_summary} and {!to_chrome_json}. Nothing else keeps them, so a
    run that records without it holds no span log: register it once
    with [Events.add_sink] for a run whose span tree or trace is
    wanted. *)

(** {1 Counters, gauges, histograms} *)

type counter

val counter : string -> counter
(** Intern the process-wide counter [name] (idempotent: the same name
    always yields the same cell). Registration is cheap and allowed
    while disabled — modules create their counters at init time. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** No-ops while disabled. *)

val counter_value : counter -> int

val set_gauge : string -> float -> unit
(** Record the latest value of a named gauge (no-op while disabled). *)

type histogram

val histogram : ?bounds:float array -> string -> histogram
(** Intern a fixed-bucket histogram. [bounds] are ascending bucket upper
    bounds (default: exponential decades from 1e-6 to 1e2, suited to
    latencies in seconds); values above the last bound land in an
    overflow bucket.
    @raise Invalid_argument if [bounds] is empty or not strictly
    increasing, or if the name was registered with different bounds. *)

val observe : histogram -> float -> unit
(** No-op while disabled. *)

(** {1 Inspection (tests, exporters)} *)

val dump : unit -> (int * Events.event list) list
(** Drain, then the kept span records per domain (domain id, records in
    recording order), sorted by domain id. Only spans whose begin and
    end both survived the rings appear, so the records nest exactly: a
    span whose begin or end was dropped, or that began before a
    {!reset}, is left out. Empty unless {!span_sink} is registered. *)

val counters : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

val gauges : unit -> (string * float) list
(** Gauges that have been set since the last {!reset}, sorted by name. *)

(** {1 Exporters} *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable report: the span tree aggregated by name within
    parent (total wall time, self time, call count), then counters,
    gauges and histograms. Histogram percentiles are approximated from
    the bucket midpoints with {!Stats.percentile}. *)

val to_chrome_json : unit -> string
(** The recorded events as Chrome trace-event JSON (array format): one
    [B]/[E] pair per span with [tid] = domain id (one track per domain),
    thread-name metadata per track, and one [C] (counter) sample per
    registered counter at the end of the trace. Load the result in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

val to_metrics_json : unit -> string
(** The current counters, gauges and histograms as one JSON object:
    [{"counters": {name: int, ...}, "gauges": {name: float, ...},
    "histograms": {name: {"buckets": [{"le": bound|"+Inf", "count": n},
    ...], "total": n, "sum": f}, ...}}]. Machine-readable companion to
    {!pp_summary} — no parsing of the human report needed. Counters at
    zero are included so consumers see a stable key set. *)
