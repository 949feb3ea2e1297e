(* Spans, counters, gauges and histograms on the Events stream, and the
   post-mortem folds over its span records. See telemetry.mli for the
   contract. *)

let enabled = Events.enabled

(* One lock guards the metric registries and the span log; recording
   into a cell or a ring never takes it. *)
let lock = Mutex.create ()

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = int Atomic.t

let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt counter_registry name with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.add counter_registry name c;
          c)

let add c n = if Events.enabled () then ignore (Atomic.fetch_and_add c n)
let incr c = add c 1
let counter_value = Atomic.get

let snapshot registry value =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name x acc -> (name, value x) :: acc) registry [])
  |> List.sort compare

let counters () = snapshot counter_registry Atomic.get

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let gauge_registry : (string, float) Hashtbl.t = Hashtbl.create 16

let set_gauge name v =
  if Events.enabled () then
    Mutex.protect lock (fun () -> Hashtbl.replace gauge_registry name v)

let gauges () = snapshot gauge_registry Fun.id

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

type histogram = {
  hname : string;
  bounds : float array;  (* ascending upper bounds *)
  buckets : int Atomic.t array;  (* length bounds + 1 (overflow) *)
  total : int Atomic.t;
  sum : float Atomic.t;
}

(* Exponential decades suited to latencies in seconds. *)
let default_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100. |]

let check_bounds name bounds =
  if Array.length bounds = 0 then
    invalid_arg (Printf.sprintf "Telemetry.histogram %s: empty bounds" name);
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg
        (Printf.sprintf "Telemetry.histogram %s: bounds not increasing" name)
  done

let hist_registry : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram ?(bounds = default_bounds) name =
  check_bounds name bounds;
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt hist_registry name with
      | Some h ->
          if h.bounds <> bounds then
            invalid_arg
              (Printf.sprintf "Telemetry.histogram %s: conflicting bounds" name);
          h
      | None ->
          let h =
            {
              hname = name;
              bounds = Array.copy bounds;
              buckets =
                Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
              total = Atomic.make 0;
              sum = Atomic.make 0.;
            }
          in
          Hashtbl.add hist_registry name h;
          h)

let rec atomic_add_float cell d =
  let v = Atomic.get cell in
  if not (Atomic.compare_and_set cell v (v +. d)) then atomic_add_float cell d

let bucket_of h x =
  let n = Array.length h.bounds in
  let rec find i = if i >= n then n else if x <= h.bounds.(i) then i else find (i + 1) in
  find 0

let observe h x =
  if Events.enabled () then begin
    ignore (Atomic.fetch_and_add h.buckets.(bucket_of h x) 1);
    ignore (Atomic.fetch_and_add h.total 1);
    atomic_add_float h.sum x
  end

let sorted_histograms () = List.map snd (snapshot hist_registry Fun.id)

(* ------------------------------------------------------------------ *)
(* Span log: the drained span records, kept for the folds              *)
(* ------------------------------------------------------------------ *)

let log : Events.event list ref = ref []  (* newest first *)

let span_sink ev =
  match ev.Events.payload with
  | Events.Span_begin _ | Events.Span_end _ ->
      Mutex.protect lock (fun () -> log := ev :: !log)
  | _ -> ()

let reset () =
  Events.reset ();
  Mutex.protect lock (fun () ->
      log := [];
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counter_registry;
      Hashtbl.reset gauge_registry;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun c -> Atomic.set c 0) h.buckets;
          Atomic.set h.total 0;
          Atomic.set h.sum 0.)
        hist_registry)

(* Keep the spans of one domain's records that both began and ended.
   An end closes the innermost open span with its id and discards the
   spans still open inside it (their ends were dropped); an end with no
   open begin (its begin was dropped, or came before a reset) closes
   nothing. What remains nests exactly. *)
let closed_spans evs =
  let closed = Hashtbl.create 64 in
  let rec close id = function
    | top :: rest -> if top = id then Some rest else close id rest
    | [] -> None
  in
  ignore
    (List.fold_left
       (fun stack ev ->
         match ev.Events.payload with
         | Events.Span_begin s -> s.id :: stack
         | Events.Span_end { span = s; _ } -> (
             match close s.id stack with
             | Some rest ->
                 Hashtbl.replace closed s.id ();
                 rest
             | None -> stack)
         | _ -> stack)
       [] evs);
  List.filter
    (fun ev ->
      match ev.Events.payload with
      | Events.Span_begin s | Events.Span_end { span = s; _ } ->
          Hashtbl.mem closed s.id
      | _ -> false)
    evs

let dump () =
  Events.drain ();
  let by_dom = Hashtbl.create 8 in
  List.iter
    (fun (ev : Events.event) ->
      Hashtbl.replace by_dom ev.dom
        (ev :: Option.value (Hashtbl.find_opt by_dom ev.dom) ~default:[]))
    (Mutex.protect lock (fun () -> !log));
  Hashtbl.fold (fun d evs acc -> (d, closed_spans evs) :: acc) by_dom []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Summary tree                                                        *)
(* ------------------------------------------------------------------ *)

type node = {
  mutable total : float;
  mutable self : float;
  mutable count : int;
  children : (string, node) Hashtbl.t;
}

let find_node tbl name =
  match Hashtbl.find_opt tbl name with
  | Some n -> n
  | None ->
      let n = { total = 0.; self = 0.; count = 0; children = Hashtbl.create 4 } in
      Hashtbl.add tbl name n;
      n

(* Fold every domain's spans into one tree keyed by span name within
   parent: totals aggregate across domains and across calls. [dump]
   leaves only closed spans, so every end closes the top frame. *)
let build_tree () =
  let roots : (string, node) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_dom, evs) ->
      ignore
        (List.fold_left
           (fun stack ev ->
             match (ev.Events.payload, stack) with
             | Events.Span_begin s, _ ->
                 let tbl =
                   match stack with [] -> roots | (n, _) :: _ -> n.children
                 in
                 (find_node tbl s.Events.name, ref 0.) :: stack
             | Events.Span_end { wall_s; _ }, (n, child_time) :: rest ->
                 n.total <- n.total +. wall_s;
                 n.self <- n.self +. (wall_s -. !child_time);
                 n.count <- n.count + 1;
                 (match rest with
                 | (_, parent_time) :: _ ->
                     parent_time := !parent_time +. wall_s
                 | [] -> ());
                 rest
             | _ -> stack)
           [] evs))
    (dump ());
  roots

let ms s = s *. 1e3

let rec pp_tree ppf ~indent tbl =
  let entries =
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b.total a.total)
  in
  List.iter
    (fun (name, n) ->
      Format.fprintf ppf "  %s%-*s %6d calls %10.2f ms total %10.2f ms self@,"
        (String.make indent ' ')
        (max 1 (36 - indent))
        name n.count (ms n.total) (ms n.self);
      pp_tree ppf ~indent:(indent + 2) n.children)
    entries

let hist_snapshot h =
  let buckets = Array.map Atomic.get h.buckets in
  (buckets, Atomic.get h.total, Atomic.get h.sum)

(* Approximate percentiles from the fixed buckets: one representative
   sample per bucket midpoint, weighted by its count, fed through
   [Stats.percentile]. *)
let hist_samples h buckets =
  let n = Array.length h.bounds in
  let rep i =
    if i = 0 then h.bounds.(0) /. 2.
    else if i < n then (h.bounds.(i - 1) +. h.bounds.(i)) /. 2.
    else h.bounds.(n - 1)
  in
  let out = ref [] in
  Array.iteri
    (fun i c ->
      for _ = 1 to c do
        out := rep i :: !out
      done)
    buckets;
  !out

let pp_summary ppf () =
  Format.fprintf ppf "@[<v>spans (total wall, self = total - children):@,";
  let roots = build_tree () in
  if Hashtbl.length roots = 0 then Format.fprintf ppf "  (none recorded)@,"
  else pp_tree ppf ~indent:0 roots;
  let cs = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  Format.fprintf ppf "counters:@,";
  if cs = [] then Format.fprintf ppf "  (none)@,"
  else
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-36s %12d@," name v) cs;
  let gs = gauges () in
  Format.fprintf ppf "gauges:@,";
  if gs = [] then Format.fprintf ppf "  (none)@,"
  else
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-36s %12g@," name v) gs;
  Format.fprintf ppf "histograms:@,";
  let printed = ref false in
  List.iter
    (fun h ->
      let buckets, total, sum = hist_snapshot h in
      if total > 0 then begin
        printed := true;
        let samples = hist_samples h buckets in
        Format.fprintf ppf
          "  %-36s %8d obs  mean %10.3g  p50 %10.3g  p99 %10.3g@," h.hname
          total
          (sum /. float_of_int total)
          (Stats.percentile 50. samples)
          (Stats.percentile 99. samples)
      end)
    (sorted_histograms ());
  if not !printed then Format.fprintf ppf "  (none)@,";
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let json_value = function
  | Events.Int i -> string_of_int i
  | Events.Float f -> Events.json_float f
  | Events.Str s -> Events.json_string s
  | Events.Bool b -> string_of_bool b

let to_chrome_json () =
  let items = ref [] in
  let item fmt = Printf.ksprintf (fun s -> items := s :: !items) fmt in
  let us t = t *. 1e6 in
  let t_max = ref 0. in
  List.iter
    (fun (dom, evs) ->
      item
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \
         \"args\": {\"name\": \"%s\"}}"
        dom
        (if dom = 0 then "main" else Printf.sprintf "domain %d" dom);
      List.iter
        (fun (ev : Events.event) ->
          t_max := Float.max !t_max (us ev.t);
          match ev.payload with
          | Events.Span_begin { id; parent; name; cat; args; _ } ->
              let args =
                args @ (("span_id", Events.Int id)
                :: (if parent = 0 then []
                    else [ ("parent_id", Events.Int parent) ]))
              in
              item
                "{\"name\": %s, \"cat\": %s, \"ph\": \"B\", \"ts\": %.3f, \
                 \"pid\": 1, \"tid\": %d, \"args\": {%s}}"
                (Events.json_string name) (Events.json_string cat) (us ev.t)
                dom
                (String.concat ", "
                   (List.map
                      (fun (k, v) ->
                        Events.json_string k ^ ": " ^ json_value v)
                      args))
          | _ ->
              item "{\"ph\": \"E\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d}"
                (us ev.t) dom)
        evs)
    (dump ());
  List.iter
    (fun (name, v) ->
      if v <> 0 then
        item
          "{\"name\": %s, \"ph\": \"C\", \"ts\": %.3f, \"pid\": 1, \
           \"tid\": 0, \"args\": {\"value\": %d}}"
          (Events.json_string name) !t_max v)
    (counters ());
  "[\n" ^ String.concat ",\n" (List.rev !items) ^ "\n]\n"

(* ------------------------------------------------------------------ *)
(* Metrics exposition (JSON snapshot + Prometheus text format)         *)
(* ------------------------------------------------------------------ *)

let to_metrics_json () =
  let b = Buffer.create 1024 in
  let obj name render items =
    Buffer.add_string b (Printf.sprintf "\"%s\": {" name);
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b ", ";
        render item)
      items;
    Buffer.add_string b "}"
  in
  Buffer.add_string b "{";
  obj "counters"
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "%s: %d" (Events.json_string name) v))
    (counters ());
  Buffer.add_string b ", ";
  obj "gauges"
    (fun (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s: %s" (Events.json_string name) (Events.json_float v)))
    (gauges ());
  Buffer.add_string b ", ";
  obj "histograms"
    (fun h ->
      let buckets, total, sum = hist_snapshot h in
      Buffer.add_string b (Printf.sprintf "%s: {" (Events.json_string h.hname));
      Buffer.add_string b "\"buckets\": [";
      Array.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string b ", ";
          let le =
            if i < Array.length h.bounds then Events.json_float h.bounds.(i)
            else "\"+Inf\""
          in
          Buffer.add_string b
            (Printf.sprintf "{\"le\": %s, \"count\": %d}" le c))
        buckets;
      Buffer.add_string b
        (Printf.sprintf "], \"total\": %d, \"sum\": %s}" total
           (Events.json_float sum)))
    (sorted_histograms ());
  Buffer.add_string b "}";
  Buffer.contents b
