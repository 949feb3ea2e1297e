module Cond = Ftes_ftcpg.Cond
module Events = Ftes_util.Events
module Condvec = Ftes_ftcpg.Condvec
module Ftcpg = Ftes_ftcpg.Ftcpg
module Table = Ftes_sched.Table

(* The table is compiled once; every candidate scenario is then one
   row replay. *)
let shrinker table =
  let u = (Ftcpg.scenario_family table.Table.ftcpg).Ftcpg.funiverse in
  let c = Compiled.compile table u in
  let scr = Compiled.make_scratch c in
  let still_fails g =
    Compiled.replay_one c (Condvec.of_guards u [ g ]) 0 scr <> []
  in
  let drop_one g =
    let lits = Cond.literals g in
    (* Fault literals first: dropping one lowers the fault count,
       dropping a no-fault literal only generalizes the guard. *)
    let ordered =
      List.filter (fun (l : Cond.literal) -> l.Cond.fault) lits
      @ List.filter (fun (l : Cond.literal) -> not l.Cond.fault) lits
    in
    List.find_map
      (fun (l : Cond.literal) ->
        let remaining = List.filter (fun l' -> l' <> l) lits in
        match Cond.of_literals remaining with
        | Some g' when still_fails g' -> Some g'
        | Some _ | None -> None)
      ordered
  in
  let rec fix g = match drop_one g with Some g' -> fix g' | None -> g in
  fun scenario -> if still_fails scenario then fix scenario else scenario

let shrink table ~scenario = shrinker table scenario

type group = {
  kind : string;
  vertex : int option;
  vertex_name : string option;
  count : int;
  example : Violation.t;
  shrunk : Cond.guard option;
  shrunk_label : string option;
}

type report = { total : int; groups : group list }

let group_violations violations =
  let tbl : (string * int option, Violation.t list) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  List.iter
    (fun v ->
      let key = (Violation.kind_label v, Violation.vertex_id v) in
      (match Hashtbl.find_opt tbl key with
      | None ->
          order := key :: !order;
          Hashtbl.replace tbl key [ v ]
      | Some vs -> Hashtbl.replace tbl key (v :: vs)))
    violations;
  List.rev_map
    (fun (kind, vertex) ->
      (kind, vertex, List.rev (Hashtbl.find tbl (kind, vertex))))
    !order

let of_violations ?(max_shrinks = 8) table violations =
  let ftcpg = table.Table.ftcpg in
  let shrink = lazy (shrinker table) in
  let grouped = group_violations violations in
  let sorted =
    List.stable_sort
      (fun (_, _, a) (_, _, b) ->
        compare (List.length b) (List.length a))
      grouped
  in
  let groups =
    List.mapi
      (fun rank (kind, vertex, members) ->
        let example = List.hd members in
        let shrunk =
          if rank >= max_shrinks then None
          else
            Option.map (Lazy.force shrink) example.Violation.scenario
        in
        {
          kind;
          vertex;
          vertex_name = Violation.vertex_name example;
          count = List.length members;
          example;
          shrunk;
          shrunk_label =
            Option.map
              (fun g -> Cond.to_string ~name:(Ftcpg.cond_name ftcpg) g)
              shrunk;
        })
      sorted
  in
  { total = List.length violations; groups }

let report ?jobs ?max_shrinks table =
  of_violations ?max_shrinks table (Sim.validate ?jobs table)

let pp_report ppf r =
  if r.total = 0 then Format.fprintf ppf "no violations@,"
  else begin
    Format.fprintf ppf "@[<v>%d violation(s) in %d group(s)@," r.total
      (List.length r.groups);
    List.iter
      (fun g ->
        Format.fprintf ppf "@,[%s]%s x%d@," g.kind
          (match g.vertex_name with
          | Some n -> Printf.sprintf " %s" n
          | None -> "")
          g.count;
        Format.fprintf ppf "  e.g. %s@," (Violation.to_string g.example);
        match (g.shrunk, g.example.Violation.scenario) with
        | Some shrunk, Some original ->
            Format.fprintf ppf
              "  minimal failing scenario: %s (%d fault(s), down from %d)@,"
              (Option.value g.shrunk_label ~default:"true")
              (Cond.fault_count shrunk)
              (Cond.fault_count original)
        | _ -> ())
      r.groups;
    Format.fprintf ppf "@]"
  end

let report_to_json r =
  let group_json g =
    let fields =
      [ ("kind", Events.json_string g.kind) ]
      @ (match g.vertex with
        | Some vid -> [ ("vertex", string_of_int vid) ]
        | None -> [])
      @ (match g.vertex_name with
        | Some n -> [ ("vertex_name", Events.json_string n) ]
        | None -> [])
      @ [
          ("count", string_of_int g.count);
          ("example", Violation.to_json g.example);
        ]
      @ (match (g.shrunk, g.shrunk_label) with
        | Some shrunk, Some label ->
            [
              ("shrunk_scenario", Events.json_string label);
              ("shrunk_faults", string_of_int (Cond.fault_count shrunk));
            ]
        | _ -> [])
    in
    "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) -> Events.json_string k ^ ": " ^ v)
           fields)
    ^ "}"
  in
  Printf.sprintf "{\"total\": %d, \"groups\": [%s]}" r.total
    (String.concat ",\n " (List.map group_json r.groups))
