(* The full column scan that the compiled replay used before it had
   per-trie-node column lists, kept as the reference for the part of
   [Ftes_sim.Compiled.replay_one] that the lists decide: which vertices
   exist, which activation and broadcast column each selects, and the
   missing and ambiguous column checks. It reads the same compiled
   table but none of its guard index: a vertex exists, and a column
   applies, when the row implies its packed guard, and selection and
   the ambiguity checks scan every column of each existing vertex in
   table order. The checks that read only the chosen columns
   (causality, knowledge, release, overlap, deadlines) are held to
   [Sim_oracle] by their own property. The packed guards come from the
   table's entries and the FT-CPG's vertices through
   [Condvec.pack_guard], not from the compiled table's guard trie. *)

module C = Ftes_sim.Compiled
module Condvec = Ftes_ftcpg.Condvec
module Ftcpg = Ftes_ftcpg.Ftcpg
module Table = Ftes_sched.Table
module Violation = Ftes_sim.Violation

type guards = {
  vguard : Condvec.guard array;  (* vid -> existence guard *)
  xguard : Condvec.guard array array;  (* vid -> activation column guards *)
  bguard : Condvec.guard array array;  (* vid -> broadcast column guards *)
}

(* The packed guards of [t] over [u]: column [j] of a vertex is its
   [j]th entry of that kind in table order, as in [C.compile]. *)
let pack (t : Table.t) u =
  let f = t.Table.ftcpg in
  let n = Ftcpg.vertex_count f in
  let xs = Array.make n [] and bs = Array.make n [] in
  List.iter
    (fun (e : Table.entry) ->
      let g = Condvec.pack_guard u e.Table.guard in
      match e.Table.item with
      | Table.Exec vid -> xs.(vid) <- g :: xs.(vid)
      | Table.Bcast vid -> bs.(vid) <- g :: bs.(vid))
    t.Table.entries;
  let columns l = Array.of_list (List.rev l) in
  {
    vguard = Array.init n (fun vid -> Condvec.pack_guard u (Ftcpg.vertex f vid).Ftcpg.guard);
    xguard = Array.map columns xs;
    bguard = Array.map columns bs;
  }

type outcome = {
  violations : Violation.t list;
      (* missing and ambiguous columns, in [replay_one]'s order *)
  chosen : int array;  (* vid -> activation column index; -1 none *)
  bchosen : int array;  (* vid -> broadcast column index; -1 none *)
}

(* The violations [replay] reproduces. *)
let is_selection (v : Violation.t) =
  match v.kind with
  | Missing_activation _ | Ambiguous_activation _ | Never_broadcast _
  | Ambiguous_broadcast _ ->
      true
  | _ -> false

(* The most specific column of [cols] that applies ([applies j]), the
   first in table order on ties, or -1; and [ambiguous] called on each
   equally specific applicable column at another time. *)
let select applies cols ambiguous =
  let best = ref (-1) in
  let best_size = ref (-1) in
  Array.iteri
    (fun j (e : C.centry) ->
      if e.c_size > !best_size && applies j then begin
        best := j;
        best_size := e.c_size
      end)
    cols;
  if !best >= 0 then begin
    let e = cols.(!best) in
    Array.iteri
      (fun j (e' : C.centry) ->
        if
          e'.c_size = e.c_size
          && Float.abs (e'.c_start -. e.c_start) > C.eps
          && applies j
        then ambiguous e e')
      cols
  end;
  !best

(* Replay row [i] of [sp] against [c], whose guards [g] packs. *)
let replay (c : C.t) g sp i =
  let exist =
    List.filter
      (fun vid -> Condvec.implies sp i g.vguard.(vid))
      (List.init c.nverts Fun.id)
  in
  let applies guards j = Condvec.implies sp i guards.(j) in
  let violations = ref [] in
  let fail kind =
    let s = Condvec.guard_at sp i in
    violations :=
      Violation.make ~scenario:s ~scenario_label:(C.scenario_name c.cftcpg s) kind
      :: !violations
  in
  let chosen = Array.make c.nverts (-1) in
  List.iter
    (fun vid ->
      let vertex = c.vname.(vid) in
      chosen.(vid) <-
        select (applies g.xguard.(vid)) c.exec.(vid) (fun e e' ->
            fail
              (Violation.Ambiguous_activation
                 { vid; vertex; start = e.c_start; alt_start = e'.c_start }));
      if chosen.(vid) < 0 then
        fail (Violation.Missing_activation { vid; vertex }))
    exist;
  (* A single node broadcasts nothing. *)
  let bchosen = Array.make c.nverts (-1) in
  if c.nnodes > 1 then
    List.iter
      (fun vid ->
        if c.vconditional.(vid) && chosen.(vid) >= 0 then begin
          let cond = c.vcond_name.(vid) in
          bchosen.(vid) <-
            select (applies g.bguard.(vid)) c.bcast.(vid) (fun b b' ->
                fail
                  (Violation.Ambiguous_broadcast
                     { vid; cond; start = b.c_start; alt_start = b'.c_start }));
          if bchosen.(vid) < 0 then
            fail (Violation.Never_broadcast { vid; cond })
        end)
      exist;
  { violations = List.rev !violations; chosen; bchosen }
