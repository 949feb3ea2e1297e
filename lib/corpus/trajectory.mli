(** Cross-commit trajectory store: an append-only JSONL history of
    per-instance quality/runtime results.

    The corpus manifest gates a {e single} run against pinned digests.
    This store is the connective tissue between runs: every corpus run
    can append one line per instance — keyed by (commit, instance id,
    schema version) — to [corpus/trajectory.jsonl], and [ftes corpus trend]
    compares the most recent window per instance, exiting non-zero on
    runtime or quality regressions beyond a tolerance band.

    The file is plain NDJSON so external tooling (jq, a dashboard) can
    consume it directly, and append-only so concurrent CI jobs can
    [O_APPEND] without coordination. Entries whose [schema] differs
    from {!schema_version} are preserved on disk but ignored by
    {!trend} — a schema bump never invalidates the history file. *)

type entry = {
  commit : string;  (** Git commit id, or ["unknown"]. *)
  schema : int;  (** {!schema_version} at write time. *)
  id : string;  (** Corpus instance id. *)
  ok : bool;
  length : float;  (** Quality: schedule length (or section metric). *)
  wall_ms : float;  (** Runtime. *)
}

val schema_version : int

val entry_to_json : entry -> string
(** One JSON object on a single line, no trailing newline. *)

val append : string -> entry list -> unit
(** [append path entries] appends one line per entry, creating the file
    if needed. Raises [Sys_error] on an unwritable path. *)

val load : string -> (entry list, string) result
(** Parse a trajectory file in line order. Blank lines are skipped;
    an unparseable line is an [Error] naming its line number. Entries
    from other schema versions are dropped (the caller never sees
    them). A missing file is [Ok []] — an empty history, not an
    error. *)

(** {1 Trend analysis} *)

type comparison = {
  cid : string;  (** Instance id. *)
  runs : int;  (** Entries in the window (including the latest). *)
  latest : entry;
  baseline_wall_ms : float;
      (** Median wall time of the prior runs in the window. *)
  baseline_length : float;  (** Best (minimum) prior length. *)
  problems : string list;
      (** Human-readable regression descriptions; empty = clean. *)
}

val trend :
  ?window:int ->
  ?wall_tolerance:float ->
  ?wall_floor_ms:float ->
  ?length_tolerance:float ->
  entry list ->
  comparison list
(** [trend entries] groups by instance id, keeps the last [window]
    (default 5) entries per id in file order, and compares the latest
    run against the prior ones. An instance regresses when:

    - its latest run failed while any prior windowed run succeeded;
    - its latest length exceeds the best prior length by more than
      [length_tolerance] (default [1e-6], absolute — lengths are
      deterministic, so any growth is a real quality loss);
    - its latest wall time is above [wall_floor_ms] (default [10.]) {e
      and} exceeds the {e median} prior wall time by more than a factor
      of [1 +. wall_tolerance] (default [0.5]; median so one noisy
      historical run cannot poison the baseline, and the absolute floor
      because sub-millisecond instances jitter by whole multiples
      without anything having regressed).

    Instances with fewer than 2 windowed runs are omitted — there is
    nothing to compare yet. Results are sorted by id. *)

val pp_comparison : Format.formatter -> comparison -> unit
