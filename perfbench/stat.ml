(* Order statistics over timing samples. *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

type tail = { value : float; percentile : float; beyond : int; samples : int }

(* The highest percentile that still has [beyond] samples above it: the
   ([beyond] + 1)-th largest sample. A run with fewer samples than that
   reports its maximum, with nothing beyond it. *)
let tail ?(beyond = 10) xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then { value = nan; percentile = nan; beyond = 0; samples = 0 }
  else
    let i = if n > beyond then n - 1 - beyond else n - 1 in
    {
      value = a.(i);
      percentile = 100. *. float_of_int i /. float_of_int n;
      beyond = n - 1 - i;
      samples = n;
    }
