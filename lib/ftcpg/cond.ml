type literal = { cond : int; fault : bool }

(* Sorted by condition id, at most one literal per condition. *)
type guard = literal list

let true_ = []

let rec insert l = function
  | [] -> Some [ l ]
  | l' :: rest as g ->
      if l.cond < l'.cond then Some (l :: g)
      else if l.cond = l'.cond then
        if l.fault = l'.fault then Some g else None
      else Option.map (fun r -> l' :: r) (insert l rest)

let add g l = insert l g

let add_exn g l =
  match add g l with
  | Some g -> g
  | None -> invalid_arg "Cond.add_exn: contradictory literal"

let of_literals ls =
  List.fold_left
    (fun acc l -> Option.bind acc (fun g -> add g l))
    (Some true_) ls

let literals g = g

let value g cond =
  List.find_map (fun l -> if l.cond = cond then Some l.fault else None) g

(* Merge walk over the two sorted lists. *)
let rec merge g1 g2 =
  match (g1, g2) with
  | [], g | g, [] -> Some g
  | l1 :: r1, l2 :: r2 ->
      if l1.cond < l2.cond then Option.map (fun r -> l1 :: r) (merge r1 g2)
      else if l2.cond < l1.cond then Option.map (fun r -> l2 :: r) (merge g1 r2)
      else if l1.fault = l2.fault then Option.map (fun r -> l1 :: r) (merge r1 r2)
      else None

let conjoin = merge

let compatible g1 g2 = conjoin g1 g2 <> None

let rec remove g cond =
  match g with
  | [] -> []
  | l :: rest ->
      if l.cond = cond then rest
      else if l.cond > cond then g
      else l :: remove rest cond

let implies g1 g2 =
  List.for_all (fun l2 -> List.exists (fun l1 -> l1 = l2) g1) g2

let fault_count g = List.length (List.filter (fun l -> l.fault) g)

let size = List.length

let equal g1 g2 = g1 = g2

let compare = Stdlib.compare

let default_name cond = Printf.sprintf "c%d" cond

let pp ?(name = default_name) () ppf g =
  match g with
  | [] -> Format.pp_print_string ppf "true"
  | _ ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " & ")
        (fun ppf l ->
          Format.fprintf ppf "%s%s" (if l.fault then "" else "!") (name l.cond))
        ppf g

let to_string ?name g = Format.asprintf "%a" (pp ?name ()) g
