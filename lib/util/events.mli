(** The one instrumentation stream: a recording switch, a clock and a
    bounded per-domain ring of typed records — span begin/end and live
    progress events — drained in sequence order into subscriber sinks.
    {!Telemetry}'s summary tree and Chrome trace are folds over the
    drained span records; the NDJSON and TTY sinks below render the
    same stream live.

    {b Pay for what you use.} One process-wide atomic switch, off by
    default, gates every recorder: spans, events, counters, gauges and
    histograms. Disabled, {!emit}, {!with_span} and {!with_phase} cost
    one atomic load and a branch; guard payload construction with
    {!enabled} so the off path allocates nothing.

    {b Never block, never crash.} Each domain owns one single-producer
    ring of {!capacity} records, registered once via [Domain.DLS]. A
    record that finds its ring full is dropped and counted by
    {!dropped}: a recorder never waits, never grows and never raises.

    {b Delivery.} Sinks run only on the domain that called {!enable}:
    {!drain} (at phase edges, optimizer iterations and validation
    batches) collects the pending records of every ring and feeds them
    to every sink in sequence order. Each domain's records arrive in
    recording order; pool workers' records arrive at the next drain.

    {b Determinism.} Recording observes and never steers: search results
    are bit-identical with recording on or off and for every [jobs]
    value (pinned by [test/test_events.ml] and [test/test_telemetry.ml]).
    The stream itself varies between runs.

    {b Clock.} Record times are seconds since {!enable} from
    [Unix.gettimeofday], clamped non-decreasing per ring, so a span's
    children always lie inside it. *)

(** {1 Record types} *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Attribute values attached to a span. *)

type span = {
  id : int;  (** The [seq] of the span's begin record; never 0. *)
  parent : int;  (** The enclosing span on the same domain; 0 at a root. *)
  name : string;
  cat : string;  (** Chrome trace category. *)
  args : (string * value) list;  (** Chrome trace arguments. *)
  phase : bool;
      (** Opened by {!with_phase}: the sinks render its begin and end as
          [phase-start] and [phase-finish]. *)
}

type payload =
  | Span_begin of span
  | Span_end of { span : span; wall_s : float }
      (** [span] is the record its begin carried; [wall_s] the time
          between the two records. *)
  | Incumbent of {
      source : string;
          (** Which engine improved: ["tabu"], ["descent.policy"],
              ["descent.remap"], ["checkpoint"], ["portfolio:<member>"]. *)
      cost : float;  (** The new best objective (schedule length). *)
      evals : int;  (** Design evaluations performed so far by that
                        engine invocation. *)
      wall_s : float;  (** Seconds since the engine invocation began. *)
    }
  | Validation_progress of {
      backend : string;  (** ["explicit"] | ["symbolic"]. *)
      cleared : int;
          (** Scenarios replayed (explicit) or cube families processed
              (symbolic) so far. *)
      total : int;
          (** Scenario count for the explicit backend; [0] for the
              symbolic backend (the cube count is not known up
              front). *)
    }
  | Corpus_outcome of {
      id : string;
      ok : bool;
      verdict : string;
      wall_ms : float;
    }
  | Gc_sample of {
      phase : string;
      minor_words : float;
      major_words : float;
      heap_mb : float;
      major_collections : int;
    }  (** [Gc.quick_stat] deltas are not taken — these are the
           process-lifetime values at the end of [phase]. *)
  | Worker_start of { member : string }
      (** A portfolio member began running (label is the member's
          configuration name, e.g. ["MXR#0"] or ["LNS#4"]). *)
  | Worker_finish of { member : string; cost : float; wall_s : float }
      (** A portfolio member finished with its final objective and its
          own wall clock. *)

type event = {
  seq : int;  (** Global record order (atomic ticket). *)
  t : float;  (** Seconds since {!enable}. *)
  dom : int;  (** Recording domain id. *)
  payload : payload;
}

(** {1 Recording switch} *)

val capacity : int
(** Records each per-domain ring holds between two drains (4096). *)

val enable : unit -> unit
(** Start recording: clears every ring, zeroes {!dropped}, restarts the
    clock and makes the calling domain the draining one. Call only while
    the [Par] pool is idle. *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all buffered records and zero {!dropped}. Sinks stay
    registered. *)

val now : unit -> float
(** Seconds since {!enable}; [0.] while disabled. Engines take [now]
    deltas for [Incumbent.wall_s]. *)

(** {1 Recording} *)

val emit : payload -> unit
(** Non-blocking append to the calling domain's ring; drops (and
    counts) when the ring is full; no-op while disabled. *)

val dropped : unit -> int
(** Records — spans and events alike — dropped since the last
    {!enable}/{!reset} because a ring was full. *)

val with_span :
  ?cat:string -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] between a [Span_begin] and a
    [Span_end] record in the calling domain's ring. The span's parent is
    the innermost span open on the domain. The end is recorded when [f]
    returns {e or raises} (the exception is re-raised). [cat] defaults
    to ["ftes"]. [f ()] after one branch while disabled. *)

val with_phase :
  ?cat:string -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** {!with_span} for a pipeline phase: the sinks also see it, a
    [Gc_sample] is recorded just before its end, and the stream is
    drained on both edges. *)

(** {1 Sinks and draining} *)

val add_sink : (event -> unit) -> int
(** Register a sink; returns a handle for {!remove_sink}. Sinks see
    every record, span records included, on the draining domain in
    sequence order. A sink must not call back into {!drain}. *)

val remove_sink : int -> unit

val drain : unit -> unit
(** Deliver every buffered record to the registered sinks, ordered by
    sequence number. A no-op on any domain but the one that called
    {!enable}, and while another drain is in flight ([Mutex.try_lock] —
    recorders and other drain points never wait). *)

(** {1 Rendering} *)

val json_string : string -> string
(** A JSON string literal: quoted, with quotes, backslashes and control
    characters escaped. *)

val json_float : float -> string
(** A JSON number with 9 significant digits; non-finite values become
    strings. *)

val to_json : event -> string option
(** One JSON object (single line, no trailing newline): [seq], [t],
    [dom] and a [type] tag (["phase-start"], ["phase-finish"],
    ["incumbent"], ["validation-progress"], ["corpus-outcome"],
    ["gc-sample"], ["worker-start"], ["worker-finish"]), plus the
    payload's fields. [None] for the records of spans that are not
    phases. *)

val ndjson_sink : out_channel -> event -> unit
(** A sink writing {!to_json} plus a newline per rendered record,
    flushing the channel each time. Close the channel after a final
    {!drain}. *)

val progress_sink : out_channel -> event -> unit
(** A human-oriented live renderer (one flushed line per rendered
    record): phases, incumbents with cost/evals/time, validation
    progress, corpus outcomes, portfolio members. Intended for
    [ftes synthesize --progress] on stderr. *)
