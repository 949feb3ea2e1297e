module Cond = Ftes_ftcpg.Cond
module Events = Ftes_util.Events

type kind =
  | Missing_activation of { vid : int; vertex : string }
  | Ambiguous_activation of {
      vid : int;
      vertex : string;
      start : float;
      alt_start : float;
    }
  | Ambiguous_broadcast of {
      vid : int;
      cond : string;
      start : float;
      alt_start : float;
    }
  | Never_broadcast of { vid : int; cond : string }
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
  | Distributed_knowledge of {
      vid : int;
      vertex : string;
      start : float;
      cond_vid : int;
      cond : string;
      learned : float;
    }
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

type t = {
  kind : kind;
  scenario : Cond.guard option;
  scenario_label : string option;
}

let make ?scenario ?scenario_label kind = { kind; scenario; scenario_label }

let kind_label v =
  match v.kind with
  | Missing_activation _ -> "missing-activation"
  | Ambiguous_activation _ -> "ambiguous-activation"
  | Ambiguous_broadcast _ -> "ambiguous-broadcast"
  | Never_broadcast _ -> "never-broadcast"
  | Broadcast_before_produced _ -> "broadcast-before-produced"
  | Causality _ -> "causality"
  | Distributed_knowledge _ -> "distributed-knowledge"
  | Release _ -> "release"
  | Resource_overlap _ -> "resource-overlap"
  | Deadline_missed _ -> "deadline-missed"
  | Local_deadline_missed _ -> "local-deadline-missed"
  | Frozen_drift _ -> "frozen-drift"

let vertex_id v =
  match v.kind with
  | Missing_activation { vid; _ }
  | Ambiguous_activation { vid; _ }
  | Ambiguous_broadcast { vid; _ }
  | Never_broadcast { vid; _ }
  | Broadcast_before_produced { vid; _ }
  | Causality { vid; _ }
  | Distributed_knowledge { vid; _ }
  | Release { vid; _ }
  | Resource_overlap { vid; _ }
  | Frozen_drift { vid; _ } ->
      Some vid
  | Local_deadline_missed { pid; _ } -> Some pid
  | Deadline_missed _ -> None

let vertex_name v =
  match v.kind with
  | Missing_activation { vertex; _ }
  | Ambiguous_activation { vertex; _ }
  | Causality { vertex; _ }
  | Distributed_knowledge { vertex; _ }
  | Release { vertex; _ }
  | Resource_overlap { vertex; _ }
  | Frozen_drift { vertex; _ } ->
      Some vertex
  | Ambiguous_broadcast { cond; _ }
  | Never_broadcast { cond; _ }
  | Broadcast_before_produced { cond; _ } ->
      Some cond
  | Local_deadline_missed { process; _ } -> Some process
  | Deadline_missed _ -> None

(* The exact historical renderings: same format strings (hence the same
   %g float notation) the simulator used to feed Format.kasprintf. *)
let to_string v =
  let scenario () = Option.value v.scenario_label ~default:"true" in
  match v.kind with
  | Missing_activation { vertex; _ } ->
      Printf.sprintf "vertex %s reachable but has no applicable activation"
        vertex
  | Ambiguous_activation { vertex; start; alt_start; _ } ->
      Printf.sprintf "vertex %s has ambiguous activations at %g and %g in %s"
        vertex start alt_start (scenario ())
  | Ambiguous_broadcast { cond; start; alt_start; _ } ->
      Printf.sprintf "condition %s has ambiguous broadcasts at %g and %g in %s"
        cond start alt_start (scenario ())
  | Never_broadcast { cond; _ } ->
      Printf.sprintf "condition %s is never broadcast" cond
  | Broadcast_before_produced { cond; bcast_start; produced; _ } ->
      Printf.sprintf "condition %s broadcast at %g before it is produced at %g"
        cond bcast_start produced
  | Causality { vertex; start; pred_name; pred_finish; _ } ->
      Printf.sprintf "%s starts at %g before predecessor %s finishes at %g (%s)"
        vertex start pred_name pred_finish (scenario ())
  | Distributed_knowledge { vertex; start; cond; learned; _ } ->
      Printf.sprintf
        "%s starts at %g before learning %s (broadcast finishes at %g)" vertex
        start cond learned
  | Release { vertex; start; release; _ } ->
      Printf.sprintf "%s starts at %g before its release %g" vertex start
        release
  | Resource_overlap { vertex; other; _ } ->
      Printf.sprintf "%s and %s overlap on the same resource in %s" vertex
        other (scenario ())
  | Deadline_missed { deadline; completion } ->
      Printf.sprintf "deadline %g missed: completion %g in %s" deadline
        completion (scenario ())
  | Local_deadline_missed { process; deadline; completion; _ } ->
      Printf.sprintf "%s misses local deadline %g (completes %g) in %s" process
        deadline completion (scenario ())
  | Frozen_drift { vertex; starts; _ } ->
      Format.asprintf "frozen vertex %s has several start times: %a" vertex
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_float)
        starts

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* 17 significant digits round-trip any finite double. *)
let json_float f = Printf.sprintf "%.17g" f

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Events.json_string k ^ ": " ^ v) fields)
  ^ "}"

let kind_fields = function
  | Missing_activation { vid; vertex } ->
      [
        ("vertex", string_of_int vid);
        ("vertex_name", Events.json_string vertex);
      ]
  | Ambiguous_activation { vid; vertex; start; alt_start } ->
      [
        ("vertex", string_of_int vid);
        ("vertex_name", Events.json_string vertex);
        ("start", json_float start);
        ("alt_start", json_float alt_start);
      ]
  | Ambiguous_broadcast { vid; cond; start; alt_start } ->
      [
        ("vertex", string_of_int vid);
        ("condition", Events.json_string cond);
        ("start", json_float start);
        ("alt_start", json_float alt_start);
      ]
  | Never_broadcast { vid; cond } ->
      [ ("vertex", string_of_int vid); ("condition", Events.json_string cond) ]
  | Broadcast_before_produced { vid; cond; bcast_start; produced } ->
      [
        ("vertex", string_of_int vid);
        ("condition", Events.json_string cond);
        ("broadcast_start", json_float bcast_start);
        ("produced", json_float produced);
      ]
  | Causality { vid; vertex; start; pred; pred_name; pred_finish } ->
      [
        ("vertex", string_of_int vid);
        ("vertex_name", Events.json_string vertex);
        ("start", json_float start);
        ("pred", string_of_int pred);
        ("pred_name", Events.json_string pred_name);
        ("pred_finish", json_float pred_finish);
      ]
  | Distributed_knowledge { vid; vertex; start; cond_vid; cond; learned } ->
      [
        ("vertex", string_of_int vid);
        ("vertex_name", Events.json_string vertex);
        ("start", json_float start);
        ("condition_vertex", string_of_int cond_vid);
        ("condition", Events.json_string cond);
        ("broadcast_finish", json_float learned);
      ]
  | Release { vid; vertex; start; release } ->
      [
        ("vertex", string_of_int vid);
        ("vertex_name", Events.json_string vertex);
        ("start", json_float start);
        ("release", json_float release);
      ]
  | Resource_overlap { vid; vertex; other_vid; other } ->
      [
        ("vertex", string_of_int vid);
        ("vertex_name", Events.json_string vertex);
        ("other_vertex", string_of_int other_vid);
        ("other_name", Events.json_string other);
      ]
  | Deadline_missed { deadline; completion } ->
      [ ("deadline", json_float deadline); ("completion", json_float completion) ]
  | Local_deadline_missed { pid; process; deadline; completion } ->
      [
        ("process", string_of_int pid);
        ("process_name", Events.json_string process);
        ("deadline", json_float deadline);
        ("completion", json_float completion);
      ]
  | Frozen_drift { vid; vertex; starts } ->
      [
        ("vertex", string_of_int vid);
        ("vertex_name", Events.json_string vertex);
        ( "starts",
          "[" ^ String.concat ", " (List.map json_float starts) ^ "]" );
      ]

let scenario_fields v =
  match v.scenario with
  | None -> []
  | Some g ->
      let lits =
        List.map
          (fun (l : Cond.literal) ->
            json_obj
              [
                ("cond", string_of_int l.Cond.cond);
                ("fault", if l.Cond.fault then "true" else "false");
              ])
          (Cond.literals g)
      in
      (match v.scenario_label with
      | Some lbl -> [ ("scenario", Events.json_string lbl) ]
      | None -> [])
      @ [ ("scenario_literals", "[" ^ String.concat ", " lits ^ "]") ]

let to_json v =
  json_obj
    ((("kind", Events.json_string (kind_label v)) :: kind_fields v.kind)
    @ scenario_fields v
    @ [ ("message", Events.json_string (to_string v)) ])

let list_to_json vs =
  "[" ^ String.concat ",\n " (List.map to_json vs) ^ "]"
