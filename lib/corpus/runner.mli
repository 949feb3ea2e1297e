(** Corpus execution: evaluate instances (in parallel), gate the
    outcomes against the manifest, or pin a new manifest.

    Evaluation is deterministic: tables are digest-identical for every
    jobs value (pinned elsewhere), the estimator and the soft scheduler
    are pure, and sampled validation draws from a seed derived from the
    instance id — so {!verify} failures are real regressions, never
    scheduling noise. Only [wall_ms] varies between runs; the manifest
    stores budget {e tiers}, not measured times, keeping the checked-in
    file machine-independent. *)

type error =
  | Limit of Ftes_core.Synthesis.limit
      (** The tables exceed a limit of the table synthesis — there is
          nothing to digest or validate. *)
  | Violations of { count : int; first : string }
      (** Fault-injection validation reported violations. *)
  | Invariant_broken of string
      (** A result-level invariant did not hold (degenerate estimator
          length, soft-utility ordering). *)
  | Crash of string  (** Any other exception, rendered. *)

val error_to_string : error -> string

type outcome = {
  instance : Instance.t;
  length : float;
  digest : string;
  verdict : string;
  ok : bool;  (** The instance executed cleanly (synthesized, validated
                  without violations, invariants held). *)
  error : error option;
      (** The typed failure when [not ok]; [None] iff [ok]. Instances
          never panic the runner — every failure mode (including the
          historical [failwith]/[assert false] paths) lands here and is
          reported by {!verify} / [ftes corpus verify]. *)
  detail : string;  (** [error_to_string error] when [not ok]. *)
  wall_ms : float;
}

val tier_budget_ms : Instance.tier -> float
(** Per-instance runtime ceiling: 5 s (smoke), 30 s (standard), 120 s
    (heavy) — generous bounds that catch complexity blow-ups, not
    machine jitter. *)

val evaluate : Instance.t -> outcome
(** Run one instance end to end according to its {!Instance.check}.
    Exceptions (e.g. FT-CPG expansion overflow) are captured as a
    failed outcome rather than propagated. *)

val run :
  ?jobs:int ->
  ?on_outcome:(done_count:int -> total:int -> outcome -> unit) ->
  Instance.t list ->
  outcome list
(** Evaluate the instances on the [Par] domain pool, in batches, calling
    [on_outcome] as each batch lands (per-instance progress streaming).
    Results are in input order regardless of [jobs]. *)

type failure = { id : string; reason : string }

val verify :
  ?budget_factor:float ->
  ?complete:bool ->
  manifest:Manifest.t ->
  outcome list ->
  failure list
(** Gate outcomes against the manifest. A failure is reported when an
    instance failed to execute, is missing from the manifest, differs
    from its pinned digest / length (tolerance 1e-6) / verdict / tier,
    or exceeded [budget_factor] (default 1) times its tier ceiling.
    With [complete] (the outcomes cover the whole corpus), stale
    manifest entries with no matching instance are failures too. *)

val pin : outcome list -> Manifest.t
(** Build the manifest recording these outcomes.
    @raise Invalid_argument if any outcome is not [ok] — a broken
    instance must not be pinned as an oracle. *)
