(** Typed violation diagnostics for the fault-injection simulator.

    Every check {!Compiled.replay_one} performs produces a structured
    violation instead of an opaque string: the constructor identifies
    the broken invariant, the payload carries the FT-CPG vertex ids, the
    activation times involved and the human-readable names needed to
    render the message, and the enclosing record carries the guilty
    fault scenario (when the check is per-scenario).

    {!to_string} reproduces the historical [Format.kasprintf] renderings
    byte for byte, so log-scraping consumers and the [jobs]-determinism
    guarantees of {!Sim.validate} are unaffected. {!to_json} emits a
    self-contained machine-readable record for aggregation across large
    scenario sweeps. *)

type kind =
  | Missing_activation of { vid : int; vertex : string }
      (** A vertex reachable in the scenario has no applicable table
          column. *)
  | Ambiguous_activation of {
      vid : int;
      vertex : string;
      start : float;
      alt_start : float;
    }
      (** Two maximally specific execution columns apply with different
          start times — the run-time scheduler cannot decide. *)
  | Ambiguous_broadcast of {
      vid : int;
      cond : string;
      start : float;
      alt_start : float;
    }
      (** Two maximally specific broadcast columns apply with different
          start times. *)
  | Never_broadcast of { vid : int; cond : string }
      (** A condition produced in the scenario is never put on the bus,
          so remote nodes can never learn it. *)
  | Broadcast_before_produced of {
      vid : int;
      cond : string;
      bcast_start : float;
      produced : float;
    }
  | Causality of {
      vid : int;
      vertex : string;
      start : float;
      pred : int;
      pred_name : string;
      pred_finish : float;
    }
      (** An activation precedes the completion of a predecessor. *)
  | Distributed_knowledge of {
      vid : int;
      vertex : string;
      start : float;
      cond_vid : int;
      cond : string;
      learned : float;
    }
      (** An activation guarded by a remote condition precedes the end
          of the condition broadcast. *)
  | Release of { vid : int; vertex : string; start : float; release : float }
  | Resource_overlap of {
      vid : int;
      vertex : string;
      other_vid : int;
      other : string;
    }
  | Deadline_missed of { deadline : float; completion : float }
  | Local_deadline_missed of {
      pid : int;
      process : string;
      deadline : float;
      completion : float;
    }
  | Frozen_drift of { vid : int; vertex : string; starts : float list }
      (** A frozen vertex has several distinct start times across the
          table columns (transparency broken). Cross-scenario: carries
          no scenario. *)

type t = {
  kind : kind;
  scenario : Ftes_ftcpg.Cond.guard option;
      (** The fault scenario whose replay produced the violation;
          [None] for the cross-scenario transparency check. *)
  scenario_label : string option;
      (** [scenario] rendered with the table's condition names, cached
          at detection time so rendering needs no FT-CPG. *)
}

val make :
  ?scenario:Ftes_ftcpg.Cond.guard -> ?scenario_label:string -> kind -> t

val kind_label : t -> string
(** Stable kebab-case identifier of the constructor, e.g.
    ["missing-activation"] — the grouping key of {!Diagnose} and the
    ["kind"] field of {!to_json}. *)

val vertex_id : t -> int option
(** The primary FT-CPG vertex (or process id for local deadlines) the
    violation anchors to; [None] for the global deadline. *)

val vertex_name : t -> string option

val to_string : t -> string
(** Byte-identical to the pre-typed simulator messages. *)

val to_json : t -> string
(** One JSON object; floats are rendered with enough digits to
    round-trip through any standard parser. *)

val list_to_json : t list -> string
(** A JSON array of {!to_json} records. *)
