type spec =
  | Single of { setup : float; bandwidth : float }
  | Tdma of {
      slot_order : int array;
      slot_of_node : int array;  (* node id -> slot index in the round *)
      slot_length : float;
      bandwidth : float;
    }

type t = spec

let single ?(setup = 0.) ~bandwidth () =
  if bandwidth <= 0. then invalid_arg "Bus.single: bandwidth <= 0";
  if setup < 0. then invalid_arg "Bus.single: setup < 0";
  Single { setup; bandwidth }

let tdma ?slot_order ~slot_length ~bandwidth nodes =
  if slot_length <= 0. then invalid_arg "Bus.tdma: slot_length <= 0";
  if bandwidth <= 0. then invalid_arg "Bus.tdma: bandwidth <= 0";
  if nodes <= 0 then invalid_arg "Bus.tdma: no nodes";
  let slot_order =
    match slot_order with
    | None -> Array.init nodes (fun i -> i)
    | Some o -> Array.copy o
  in
  if Array.length slot_order <> nodes then
    invalid_arg "Bus.tdma: slot_order length mismatch";
  let slot_of_node = Array.make nodes (-1) in
  Array.iteri
    (fun slot node ->
      if node < 0 || node >= nodes then invalid_arg "Bus.tdma: bad node id";
      if slot_of_node.(node) <> -1 then
        invalid_arg "Bus.tdma: slot_order is not a permutation";
      slot_of_node.(node) <- slot)
    slot_order;
  Tdma { slot_order; slot_of_node; slot_length; bandwidth }

let is_tdma = function Tdma _ -> true | Single _ -> false

let tx_time t ~size =
  if size < 0. then invalid_arg "Bus.tx_time: negative size";
  if size = 0. then 0.
  else
    match t with
    | Single { setup; bandwidth } -> setup +. (size /. bandwidth)
    | Tdma { bandwidth; _ } -> size /. bandwidth

let round_length = function
  | Single _ -> 0.
  | Tdma { slot_order; slot_length; _ } ->
      float_of_int (Array.length slot_order) *. slot_length

let slot_length = function
  | Single _ -> 0.
  | Tdma { slot_length; _ } -> slot_length

let slot_offset t ~node =
  match t with
  | Single _ -> 0.
  | Tdma { slot_of_node; slot_length; _ } ->
      if node < 0 || node >= Array.length slot_of_node then
        invalid_arg "Bus.slot_offset: unknown node";
      float_of_int slot_of_node.(node) *. slot_length

(* First occurrence of [node]'s slot starting at or after [earliest]. *)
let slot_start_at_or_after slot_of_node slot_length round node earliest =
  let offset = float_of_int slot_of_node.(node) *. slot_length in
  if earliest <= offset then offset
  else
    let k = ceil ((earliest -. offset) /. round) in
    offset +. (k *. round)

let next_window t ~node ~size ~earliest =
  let earliest = max 0. earliest in
  let tx = tx_time t ~size in
  match t with
  | Single _ -> (earliest, earliest +. tx)
  | Tdma { slot_of_node; slot_length; slot_order; _ } ->
      if node < 0 || node >= Array.length slot_of_node then
        invalid_arg "Bus.next_window: unknown node";
      let round = float_of_int (Array.length slot_order) *. slot_length in
      let start =
        slot_start_at_or_after slot_of_node slot_length round node earliest
      in
      if tx = 0. then (start, start)
      else if tx <= slot_length then begin
        (* A short message may also start mid-slot, provided it still
           fits before the slot ends (frames pack several messages). *)
        let prev_start = start -. round in
        if prev_start <= earliest && earliest +. tx <= prev_start +. slot_length
        then (earliest, earliest +. tx)
        else (start, start +. tx)
      end
      else
        (* A message longer than one slot occupies the node's slot in
           [m] consecutive rounds; it completes [rem] into the last one. *)
        let m = int_of_float (ceil (tx /. slot_length)) in
        let rem = tx -. (float_of_int (m - 1) *. slot_length) in
        (start, start +. (float_of_int (m - 1) *. round) +. rem)

let pp ppf = function
  | Single { setup; bandwidth } ->
      Format.fprintf ppf "single bus (setup %g, bandwidth %g)" setup bandwidth
  | Tdma { slot_order; slot_length; bandwidth; _ } ->
      Format.fprintf ppf "TDMA bus (%d slots of %g, bandwidth %g)"
        (Array.length slot_order) slot_length bandwidth
