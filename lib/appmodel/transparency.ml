type obj = Proc of int | Msg of int

(* Processes before messages, then by id: the order of polymorphic
   compare on these constructors, without its generic traversal. *)
module Oset = Set.Make (struct
  type t = obj

  let compare a b =
    match (a, b) with
    | Proc x, Proc y | Msg x, Msg y -> Int.compare x y
    | Proc _, Msg _ -> -1
    | Msg _, Proc _ -> 1
end)

type t = Oset.t

let none = Oset.empty

let of_list objs = Oset.of_list objs

let all g =
  let n = Graph.process_count g and m = Graph.message_count g in
  let procs = List.init n (fun pid -> Proc pid) in
  let msgs = List.init m (fun mid -> Msg mid) in
  Oset.of_list (procs @ msgs)

let all_messages g =
  Oset.of_list (List.init (Graph.message_count g) (fun mid -> Msg mid))

let freeze t o = Oset.add o t
let thaw t o = Oset.remove o t
let is_frozen t o = Oset.mem o t
let is_frozen_proc t pid = Oset.mem (Proc pid) t
let is_frozen_msg t mid = Oset.mem (Msg mid) t
let frozen_objects t = Oset.elements t
let cardinal t = Oset.cardinal t
let equal = Oset.equal

let pp g ppf t =
  let name = function
    | Proc pid -> (Graph.process g pid).Graph.pname
    | Msg mid -> (Graph.message g mid).Graph.mname
  in
  Format.fprintf ppf "frozen{%s}"
    (String.concat ", " (List.map name (Oset.elements t)))
