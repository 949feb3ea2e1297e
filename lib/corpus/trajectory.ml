(* Append-only cross-commit result history over the manifest's JSON
   toolkit. See trajectory.mli. *)

type entry = {
  commit : string;
  schema : int;
  id : string;
  ok : bool;
  length : float;
  wall_ms : float;
}

let schema_version = 1

let entry_to_json e =
  Printf.sprintf
    "{\"commit\": %s, \"schema\": %d, \"id\": %s, \"ok\": %b, \
     \"length\": %.6f, \"wall_ms\": %.3f}"
    (Ftes_util.Events.json_string e.commit)
    e.schema
    (Ftes_util.Events.json_string e.id)
    e.ok e.length e.wall_ms

let append path entries =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (entry_to_json e);
          output_char oc '\n')
        entries)

let entry_of_json line =
  let open Manifest in
  match json_of_string line with
  | Error msg -> Error msg
  | Ok (Jobj fields) -> (
      let str name =
        match List.assoc_opt name fields with
        | Some (Jstr s) -> Ok s
        | _ -> Error (Printf.sprintf "field %S: expected string" name)
      in
      let num name =
        match List.assoc_opt name fields with
        | Some (Jnum f) -> Ok f
        | _ -> Error (Printf.sprintf "field %S: expected number" name)
      in
      let bool_ name =
        match List.assoc_opt name fields with
        | Some (Jbool b) -> Ok b
        | _ -> Error (Printf.sprintf "field %S: expected bool" name)
      in
      match
        (str "commit", num "schema", str "id", bool_ "ok", num "length",
         num "wall_ms")
      with
      | Ok commit, Ok schema, Ok id, Ok ok, Ok length, Ok wall_ms ->
          Ok
            {
              commit;
              schema = int_of_float schema;
              id;
              ok;
              length;
              wall_ms;
            }
      | (Error m, _, _, _, _, _)
      | (_, Error m, _, _, _, _)
      | (_, _, Error m, _, _, _)
      | (_, _, _, Error m, _, _)
      | (_, _, _, _, Error m, _)
      | (_, _, _, _, _, Error m) ->
          Error m)
  | Ok _ -> Error "expected a JSON object"

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | contents ->
        let lines = String.split_on_char '\n' contents in
        let rec go n acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest ->
              if String.trim line = "" then go (n + 1) acc rest
              else (
                match entry_of_json line with
                | Error msg ->
                    Error (Printf.sprintf "line %d: %s" n msg)
                | Ok e ->
                    let acc =
                      if e.schema = schema_version then e :: acc else acc
                    in
                    go (n + 1) acc rest)
        in
        go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Trend analysis                                                      *)
(* ------------------------------------------------------------------ *)

type comparison = {
  cid : string;
  runs : int;
  latest : entry;
  baseline_wall_ms : float;
  baseline_length : float;
  problems : string list;
}

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let a = Array.of_list sorted in
      if n mod 2 = 1 then a.(n / 2)
      else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let last_n n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let trend ?(window = 5) ?(wall_tolerance = 0.5) ?(wall_floor_ms = 10.)
    ?(length_tolerance = 1e-6) entries =
  (* Group by id preserving file (= chronological) order within each
     group. *)
  let groups : (string, entry list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt groups e.id with
      | Some r -> r := e :: !r
      | None ->
          Hashtbl.add groups e.id (ref [ e ]);
          order := e.id :: !order)
    entries;
  let compare_group id =
    let history = last_n window (List.rev !(Hashtbl.find groups id)) in
    match List.rev history with
    | latest :: (_ :: _ as prior_rev) ->
        let prior = List.rev prior_rev in
        let baseline_wall_ms = median (List.map (fun e -> e.wall_ms) prior) in
        let baseline_length =
          List.fold_left
            (fun acc e -> Float.min acc e.length)
            infinity prior
        in
        let problems = ref [] in
        let flag fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
        if (not latest.ok) && List.exists (fun e -> e.ok) prior then
          flag "latest run failed (commit %s) but prior runs succeeded"
            latest.commit;
        if latest.length > baseline_length +. length_tolerance then
          flag "quality regression: length %.6f exceeds prior best %.6f"
            latest.length baseline_length;
        if
          latest.wall_ms > wall_floor_ms
          && baseline_wall_ms > 0.
          && latest.wall_ms > (1. +. wall_tolerance) *. baseline_wall_ms
        then
          flag
            "runtime regression: %.1f ms exceeds prior median %.1f ms by \
             more than %.0f%%"
            latest.wall_ms baseline_wall_ms (100. *. wall_tolerance);
        Some
          {
            cid = id;
            runs = List.length history;
            latest;
            baseline_wall_ms;
            baseline_length;
            problems = List.rev !problems;
          }
    | _ -> None
  in
  List.sort
    (fun a b -> compare a.cid b.cid)
    (List.filter_map compare_group (List.rev !order))

let pp_comparison ppf c =
  match c.problems with
  | [] ->
      Format.fprintf ppf
        "%-40s ok    (%d runs, length %.2f vs best %.2f, %.1f ms vs median \
         %.1f ms)"
        c.cid c.runs c.latest.length c.baseline_length c.latest.wall_ms
        c.baseline_wall_ms
  | problems ->
      Format.fprintf ppf "%-40s REGRESSED (%d runs)" c.cid c.runs;
      List.iter (fun p -> Format.fprintf ppf "@,    %s" p) problems
