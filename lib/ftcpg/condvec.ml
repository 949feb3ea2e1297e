(* Packed condition vectors. See condvec.mli for the representation
   story; the encoding here is two bits per condition inside plain int
   words: bit [2f] = "a literal for this condition is present", bit
   [2f + 1] = its value (1 = fault). 31 fields per word keeps every
   shift inside OCaml's 63-bit immediate ints. *)

let fields_per_word = 31

type universe = {
  vids : int array;  (* ascending condition ids, field index -> id *)
  lookup : int array;  (* condition id -> field index, or -1 *)
  uwords : int;
}

let universe vids =
  let n = Array.length vids in
  for i = 1 to n - 1 do
    if vids.(i - 1) >= vids.(i) then
      invalid_arg
        (Printf.sprintf
           "Condvec.universe: condition ids not strictly ascending \
            (condition %d at index %d follows condition %d)"
           vids.(i) i
           vids.(i - 1))
  done;
  let max_vid = if n = 0 then -1 else vids.(n - 1) in
  let lookup = Array.make (max_vid + 1) (-1) in
  Array.iteri (fun idx vid -> lookup.(vid) <- idx) vids;
  {
    vids = Array.copy vids;
    lookup;
    uwords = max 1 ((n + fields_per_word - 1) / fields_per_word);
  }

let size u = Array.length u.vids
let words u = u.uwords
let cond_of_index u idx = u.vids.(idx)

let index_of_cond u cond =
  if cond < 0 || cond >= Array.length u.lookup then None
  else
    let idx = u.lookup.(cond) in
    if idx < 0 then None else Some idx

(* ------------------------------------------------------------------ *)
(* Packed guards                                                       *)
(* ------------------------------------------------------------------ *)

type guard = { mask : int array; bits : int array }

let guard_words (g : guard) = (g.mask, g.bits)

let guard_true u = { mask = Array.make u.uwords 0; bits = Array.make u.uwords 0 }

(* A guard no complete scenario can imply: zero mask demanding a set
   bit. [Cond.implies scenario g] is false for every scenario when [g]
   tests a condition the universe does not contain, and this encoding
   reproduces that without a special case on the hot path. *)
let guard_never u =
  let g = guard_true u in
  g.bits.(0) <- 1;
  g

(* [None]-free: a table compile packs thousands of guards. *)
let rec pack u acc = function
  | [] -> acc
  | (l : Cond.literal) :: rest ->
      let cond = l.Cond.cond in
      let idx =
        if cond < 0 || cond >= Array.length u.lookup then -1
        else u.lookup.(cond)
      in
      if idx < 0 then guard_never u
      else begin
        let w = idx / fields_per_word in
        let shift = 2 * (idx mod fields_per_word) in
        acc.mask.(w) <- acc.mask.(w) lor (3 lsl shift);
        acc.bits.(w) <-
          acc.bits.(w) lor ((if l.Cond.fault then 3 else 1) lsl shift);
        pack u acc rest
      end

let pack_guard u g = pack u (guard_true u) (Cond.literals g)

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

type row = int array

let create_row u = Array.make u.uwords 0
let clear_row (r : row) = Array.fill r 0 (Array.length r) 0

let set u (r : row) idx fault =
  ignore u;
  let w = idx / fields_per_word in
  let shift = 2 * (idx mod fields_per_word) in
  r.(w) <-
    r.(w) land lnot (3 lsl shift) lor ((if fault then 3 else 1) lsl shift)

let unset u (r : row) idx =
  ignore u;
  let w = idx / fields_per_word in
  let shift = 2 * (idx mod fields_per_word) in
  r.(w) <- r.(w) land lnot (3 lsl shift)

(* The two implication kernels are plain loops: a local recursive
   closure is allocated on every call when the build is [-opaque] and
   without flambda, which made each replay allocate per guard test. *)
let row_implies (r : row) (g : guard) =
  let n = Array.length r in
  let w = ref 0 in
  while !w < n && r.(!w) land g.mask.(!w) = g.bits.(!w) do
    incr w
  done;
  !w >= n

(* Value bits sit at odd field positions; presence at even ones. The
   row invariant (value set => present set) makes the value-bit count
   the fault count. Kernighan's loop: fault counts are <= k, tiny. *)
let value_mask =
  let m = ref 0 in
  for f = 0 to fields_per_word - 1 do
    m := !m lor (1 lsl ((2 * f) + 1))
  done;
  !m

let popcount x =
  let n = ref 0 in
  let x = ref x in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr n
  done;
  !n

let row_fault_count (r : row) =
  let acc = ref 0 in
  for w = 0 to Array.length r - 1 do
    acc := !acc + popcount (r.(w) land value_mask)
  done;
  !acc

let guard_of_words u data base =
  (* Walk indices downward so the literal list comes out ascending by
     condition id — the normalized [Cond.guard] order. *)
  let lits = ref [] in
  for idx = size u - 1 downto 0 do
    let w = idx / fields_per_word in
    let shift = 2 * (idx mod fields_per_word) in
    let field = (data.(base + w) lsr shift) land 3 in
    if field land 1 <> 0 then
      lits := { Cond.cond = u.vids.(idx); fault = field land 2 <> 0 } :: !lits
  done;
  match Cond.of_literals !lits with
  | Some g -> g
  | None ->
      (* A row holds at most one literal per condition field, so this
         is only reachable if two universe indices map to the same
         condition id — name the culprit instead of dying bare. *)
      let rec dup = function
        | (a : Cond.literal) :: (b : Cond.literal) :: _
          when a.Cond.cond = b.Cond.cond ->
            a.Cond.cond
        | _ :: rest -> dup rest
        | [] -> -1
      in
      invalid_arg
        (Printf.sprintf
           "Condvec.guard_of_words: condition %d carries more than one \
            literal"
           (dup !lits))

let guard_of_row u (r : row) = guard_of_words u r 0

(* ------------------------------------------------------------------ *)
(* Scenario arenas                                                     *)
(* ------------------------------------------------------------------ *)

type store = {
  su : universe;
  swords : int;
  mutable sdata : int array;
  mutable scount : int;
}

let store u = { su = u; swords = u.uwords; sdata = Array.make (64 * u.uwords) 0; scount = 0 }

let append s (r : row) =
  let base = s.scount * s.swords in
  if base + s.swords > Array.length s.sdata then begin
    let grown = Array.make (2 * Array.length s.sdata) 0 in
    Array.blit s.sdata 0 grown 0 base;
    s.sdata <- grown
  end;
  Array.blit r 0 s.sdata base s.swords;
  s.scount <- s.scount + 1

type space = { u : universe; words : int; data : int array; count : int }

let freeze s =
  {
    u = s.su;
    words = s.swords;
    data = Array.sub s.sdata 0 (s.scount * s.swords);
    count = s.scount;
  }

let of_guards u guards =
  let s = store u in
  let row = create_row u in
  List.iter
    (fun g ->
      clear_row row;
      List.iter
        (fun (l : Cond.literal) ->
          match index_of_cond u l.Cond.cond with
          | Some idx -> set u row idx l.Cond.fault
          | None ->
              invalid_arg "Condvec.of_guards: literal outside the universe")
        (Cond.literals g);
      append s row)
    guards;
  freeze s

let singleton u (r : row) =
  if Array.length r <> u.uwords then
    invalid_arg "Condvec.singleton: row width does not match the universe";
  { u; words = u.uwords; data = Array.copy r; count = 1 }

let count sp = sp.count

let implies sp i (g : guard) =
  let base = i * sp.words in
  let n = sp.words in
  let data = sp.data in
  let w = ref 0 in
  while !w < n && data.(base + !w) land g.mask.(!w) = g.bits.(!w) do
    incr w
  done;
  !w >= n

let fault_count sp i =
  let base = i * sp.words in
  let acc = ref 0 in
  for w = 0 to sp.words - 1 do
    acc := !acc + popcount (sp.data.(base + w) land value_mask)
  done;
  !acc

let guard_at sp i = guard_of_words sp.u sp.data (i * sp.words)
