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
   [Sim_oracle] by their own property. *)

module C = Ftes_sim.Compiled
module Condvec = Ftes_ftcpg.Condvec
module Violation = Ftes_sim.Violation

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

(* The most specific column of [cols] that applies, the first in table
   order on ties, or -1; and [ambiguous] called on each equally
   specific applicable column at another time. *)
let select applies cols ambiguous =
  let best = ref (-1) in
  let best_size = ref (-1) in
  Array.iteri
    (fun j (e : C.centry) ->
      if e.c_size > !best_size && applies e then begin
        best := j;
        best_size := e.c_size
      end)
    cols;
  if !best >= 0 then begin
    let e = cols.(!best) in
    Array.iter
      (fun (e' : C.centry) ->
        if
          e'.c_size = e.c_size
          && Float.abs (e'.c_start -. e.c_start) > C.eps
          && applies e'
        then ambiguous e e')
      cols
  end;
  !best

(* Replay row [i] of [sp] against [c]. *)
let replay (c : C.t) sp i =
  let exist =
    List.filter
      (fun vid -> Condvec.implies sp i c.vguard.(vid))
      (List.init c.nverts Fun.id)
  in
  let applies (e : C.centry) = Condvec.implies sp i e.c_guard in
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
        select applies c.exec.(vid) (fun e e' ->
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
            select applies c.bcast.(vid) (fun b b' ->
                fail
                  (Violation.Ambiguous_broadcast
                     { vid; cond; start = b.c_start; alt_start = b'.c_start }));
          if bchosen.(vid) < 0 then
            fail (Violation.Never_broadcast { vid; cond })
        end)
      exist;
  { violations = List.rev !violations; chosen; bchosen }
