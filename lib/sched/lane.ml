module Bus = Ftes_arch.Bus

(* Stdlib [max] at type float, bit for bit, without the polymorphic
   compare call. *)
let fmax (a : float) b = if a >= b then a else b

(* Dune's dev profile compiles with [-opaque], so every call into [Bus]
   returns a freshly boxed [(float * float)] tuple; the window arithmetic
   below runs here instead, on unboxed floats, in [Bus.next_window]'s
   exact order of operations, next to the walks that inline it. *)
type view = {
  bus : Bus.t;
  tdma : bool;
  slot : float;
  round : float;
  offsets : float array;  (** Per-node slot offset within a round. *)
}

let view bus ~nodes =
  let tdma = Bus.is_tdma bus in
  {
    bus;
    tdma;
    slot = Bus.slot_length bus;
    round = Bus.round_length bus;
    offsets =
      (if tdma then Array.init nodes (fun node -> Bus.slot_offset bus ~node)
       else [||]);
  }

(* [fst (Bus.next_window bus ~node ~size ~earliest)] for a message of
   transmission time [tx], where [offset] is [node]'s slot offset. *)
let[@inline] window_start v ~offset ~tx earliest =
  let earliest = fmax 0. earliest in
  if not v.tdma then earliest
  else
    let start =
      if earliest <= offset then offset
      else
        let k = ceil ((earliest -. offset) /. v.round) in
        offset +. (k *. v.round)
    in
    if tx = 0. || tx > v.slot then start
    else
      (* Mid-slot packing of a short message. *)
      let prev_start = start -. v.round in
      if prev_start <= earliest && earliest +. tx <= prev_start +. v.slot
      then earliest
      else start

(* The matching [snd (Bus.next_window ...)]: on every branch the finish
   is a function of the start and [tx] alone. *)
let[@inline] window_finish v ~tx start =
  if tx = 0. then start
  else if (not v.tdma) || tx <= v.slot then start +. tx
  else
    (* Long message: the node's slot in [m] consecutive rounds. *)
    let m = int_of_float (ceil (tx /. v.slot)) in
    let rem = tx -. (float_of_int (m - 1) *. v.slot) in
    start +. (float_of_int (m - 1) *. v.round) +. rem

(* Two growable arrays of ascending [start]/[finish], compared as the
   tests' persistent reference timeline compares. Stored intervals are
   non-empty ([finish > start + eps]) and each starts no earlier than
   eps before the previous one ends; both arrays are therefore strictly
   ascending, which lets a binary search replace the prefix of each
   walk that cannot change its outcome. *)
type t = {
  mutable starts : float array;
  mutable finishes : float array;
  mutable len : int;
}

let eps = 1e-9

let create () = { starts = [||]; finishes = [||]; len = 0 }

let length t = t.len

let clear t = t.len <- 0

let intervals t = List.init t.len (fun i -> (t.starts.(i), t.finishes.(i)))

(* The reference timeline's earliest gap. The walk over the reservations
   starts at [pos = from_] and, while [pos] is still [from_], steps past
   reservation [i] unchanged exactly when [i] ends at or before [from_]
   and the request does not fit before it. Both conditions hold on a
   prefix of the ascending arrays, so that prefix is skipped by binary
   search and the walk resumes where it would first act. The searches
   here are written out: a predicate closure would be allocated on
   every call. *)
let earliest_gap t ~from_ ~duration =
  if duration <= eps then from_
  else begin
    let lo = ref 0 and hi = ref t.len in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.finishes.(mid) <= from_
         && not (from_ +. duration <= t.starts.(mid) +. eps)
      then lo := mid + 1
      else hi := mid
    done;
    let i = ref !lo in
    let pos = ref from_ in
    while !i < t.len && not (!pos +. duration <= t.starts.(!i) +. eps) do
      pos := fmax !pos t.finishes.(!i);
      incr i
    done;
    !pos
  end

(* The reference bus allocator's window search on this lane, returning
   the window's start (its finish is [window_finish v ~tx start]). The
   walk keeps the candidate window [(s, f)] of the current [t0] and
   steps past reservation [i] with [t0] unchanged exactly when the
   window neither fits before it nor overlaps it. While [t0] is still
   [earliest] the window is the same at every step, so those steps cover
   a prefix of the ascending arrays, skipped by binary search as above. *)
let find_window t v ~src ~tx ~earliest =
  let offset = if v.tdma then v.offsets.(src) else 0. in
  let s0 = window_start v ~offset ~tx earliest in
  let f0 = window_finish v ~tx s0 in
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (not (f0 <= t.starts.(mid) +. eps)) && s0 >= t.finishes.(mid) -. eps
    then lo := mid + 1
    else hi := mid
  done;
  let t0 = ref earliest and s = ref s0 and f = ref f0 and i = ref !lo in
  while !i < t.len && not (!f <= t.starts.(!i) +. eps) do
    if not (!s >= t.finishes.(!i) -. eps) then begin
      t0 := fmax !t0 t.finishes.(!i);
      s := window_start v ~offset ~tx !t0;
      f := window_finish v ~tx !s
    end;
    incr i
  done;
  !s

let bus_window t v ~src ~size ~earliest =
  if size <= 0. then (earliest, earliest)
  else
    let tx = Bus.tx_time v.bus ~size in
    let s = find_window t v ~src ~tx ~earliest in
    (s, window_finish v ~tx s)

(* The new interval goes after every reservation ending at or before
   [start + eps] and must end by eps after the next one starts. *)
let reserve t ~start ~finish =
  if finish <= start +. eps then begin
    if finish < start then invalid_arg "Lane.reserve: negative interval";
    -1
  end
  else begin
    let lo = ref 0 and hi = ref t.len in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.finishes.(mid) <= start +. eps then lo := mid + 1 else hi := mid
    done;
    let p = !lo in
    if p < t.len && not (finish <= t.starts.(p) +. eps) then
      invalid_arg "Lane.reserve: overlapping reservation";
    if t.len = Array.length t.starts then begin
      let cap = max 8 (2 * t.len) in
      let grow a =
        let b = Array.make cap 0. in
        Array.blit a 0 b 0 t.len;
        b
      in
      t.starts <- grow t.starts;
      t.finishes <- grow t.finishes
    end;
    Array.blit t.starts p t.starts (p + 1) (t.len - p);
    Array.blit t.finishes p t.finishes (p + 1) (t.len - p);
    t.starts.(p) <- start;
    t.finishes.(p) <- finish;
    t.len <- t.len + 1;
    p
  end

let remove t p =
  t.len <- t.len - 1;
  Array.blit t.starts (p + 1) t.starts p (t.len - p);
  Array.blit t.finishes (p + 1) t.finishes p (t.len - p)

let bus_lanes v =
  Array.init
    (if v.tdma then max (Array.length v.offsets) 1 else 1)
    (fun _ -> create ())

let bus_lane v ~src = if v.tdma then src else 0
