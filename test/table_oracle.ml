(* The list-based schedule-table assembly, kept as the test oracle of
   [Ftes_sched.Table.make]. It rescans every guard pair of a slot after
   every merge (cubic in the guards of one slot), but it reads directly
   against the specification: sibling guards resolve on one
   complementary literal, the first resolvable guard in [Cond.compare]
   order merging with its first partner, until a fixpoint. The
   equivalence property in [test_sched] requires the library's
   assembly to agree with it entry for entry. *)

module Cond = Ftes_ftcpg.Cond
module Table = Ftes_sched.Table

(* Literals common to both guards — the most specific guard implied by
   both. *)
let intersect g1 g2 =
  let common = List.filter (fun l -> List.mem l (Cond.literals g2)) (Cond.literals g1) in
  Option.get (Cond.of_literals common)

(* Two guards resolve when they differ in exactly one complementary
   literal: the union of their scenario sets is exactly the common
   rest. Anything weaker (e.g. plain intersection) would let an entry
   leak into scenarios whose track committed a different time. With
   equal sizes and one literal outside the intersection on each side,
   the two leftover literals are complementary exactly when the guards
   contradict each other ([A&c] and [A&d] are compatible and stay
   apart). *)
let resolve g1 g2 =
  let c = intersect g1 g2 in
  if
    Cond.size g1 = Cond.size g2
    && Cond.size c = Cond.size g1 - 1
    && not (Cond.compatible g1 g2)
  then Some c
  else None

let dedup (entries : Table.entry list) =
  (* One entry per (item, start, resource, guard); same-slot entries
     from sibling branches collapse by resolution until a fixpoint. *)
  let groups = Hashtbl.create 64 in
  let keys = ref [] in
  List.iter
    (fun (e : Table.entry) ->
      let key = (e.Table.item, e.Table.resource, Float.round (e.Table.start *. 1e6)) in
      if not (Hashtbl.mem groups key) then keys := key :: !keys;
      Hashtbl.replace groups key
        (e :: (try Hashtbl.find groups key with Not_found -> [])))
    entries;
  let collapse (es : Table.entry list) =
    let guards =
      ref (List.sort_uniq Cond.compare (List.map (fun (e : Table.entry) -> e.Table.guard) es))
    in
    let find_resolvable gs =
      let rec go = function
        | [] -> None
        | g :: rest -> (
            match List.find_map (fun g' -> resolve g g') rest with
            | Some merged -> Some (g, merged)
            | None -> go rest)
      in
      go gs
    in
    let rec step () =
      match find_resolvable !guards with
      | Some (g, merged) ->
          (* [merged] covers [g] and its resolution partner. *)
          guards :=
            List.sort_uniq Cond.compare
              (merged
              :: List.filter
                   (fun g' ->
                     not (Cond.equal g' g || Cond.implies g' merged))
                   !guards);
          step ()
      | None ->
          (* Drop guards subsumed by a strictly more general one. *)
          let gs = !guards in
          let kept =
            List.filter
              (fun g ->
                not
                  (List.exists
                     (fun g' -> (not (Cond.equal g g')) && Cond.implies g g')
                     gs))
              gs
          in
          if List.length kept <> List.length gs then begin
            guards := kept;
            step ()
          end
    in
    step ();
    match es with
    | [] -> []
    | e :: _ -> List.map (fun g -> { e with Table.guard = g }) !guards
  in
  List.concat_map (fun key -> collapse (Hashtbl.find groups key)) !keys

(* The entries [Table.make] would store for [entries]. *)
let make entries =
  List.sort
    (fun (a : Table.entry) (b : Table.entry) ->
      compare (a.Table.start, a.Table.item) (b.Table.start, b.Table.item))
    (dedup entries)
