(* The one instrumentation stream: switch, clock, bounded per-domain
   rings of span and event records, subscriber sinks, ordered drain.
   See events.mli for the contract. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  args : (string * value) list;
  phase : bool;
}

type payload =
  | Span_begin of span
  | Span_end of { span : span; wall_s : float }
  | Incumbent of { source : string; cost : float; evals : int; wall_s : float }
  | Validation_progress of { backend : string; cleared : int; total : int }
  | Corpus_outcome of {
      id : string;
      ok : bool;
      verdict : string;
      wall_ms : float;
    }
  | Gc_sample of {
      phase : string;
      minor_words : float;
      major_words : float;
      heap_mb : float;
      major_collections : int;
    }
  | Worker_start of { member : string }
  | Worker_finish of { member : string; cost : float; wall_s : float }

type event = { seq : int; t : float; dom : int; payload : payload }

(* ------------------------------------------------------------------ *)
(* Recording switch and clock                                          *)
(* ------------------------------------------------------------------ *)

let on = Atomic.make false
let enabled () = Atomic.get on

let t0 = Atomic.make 0.

(* Ticket for every record; a span's id is the ticket of its begin
   record, so ids start at 1 and 0 can mean "no parent". *)
let seq_counter = Atomic.make 1
let dropped_total = Atomic.make 0
let dropped () = Atomic.get dropped_total

(* Sinks run on the domain that called [enable]. *)
let drainer = Atomic.make 0

let now () =
  if Atomic.get on then Unix.gettimeofday () -. Atomic.get t0 else 0.

let capacity = 4096

(* ------------------------------------------------------------------ *)
(* Per-domain bounded rings                                            *)
(* ------------------------------------------------------------------ *)

let filler =
  { seq = 0; t = 0.; dom = 0; payload = Worker_start { member = "" } }

(* [head] and [tail] are monotonically increasing cursors into a
   virtual infinite stream; the physical slot of cursor [i] is
   [i mod capacity]. Only the owning domain writes [tail] (after the
   slot write — the atomic store publishes it), [open_span] and
   [last_t]; only the draining domain writes [head]. Each ring is
   therefore a single-producer, single-consumer queue and recording
   never takes a lock. *)
type ring = {
  rdom : int;
  slots : event array;
  head : int Atomic.t;
  tail : int Atomic.t;
  mutable open_span : int;  (* innermost open span, 0 at the root *)
  mutable last_t : float;
}

let registry_lock = Mutex.create ()
let registry : ring list ref = ref []

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          rdom = (Domain.self () :> int);
          slots = Array.make capacity filler;
          head = Atomic.make 0;
          tail = Atomic.make 0;
          open_span = 0;
          last_t = 0.;
        }
      in
      Mutex.lock registry_lock;
      registry := r :: !registry;
      Mutex.unlock registry_lock;
      r)

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun r ->
      Atomic.set r.head 0;
      Atomic.set r.tail 0;
      r.last_t <- 0.)
    !registry;
  Mutex.unlock registry_lock;
  Atomic.set dropped_total 0

let enable () =
  reset ();
  Atomic.set drainer (Domain.self () :> int);
  Atomic.set t0 (Unix.gettimeofday ());
  Atomic.set on true

let disable () = Atomic.set on false

(* The clock, clamped non-decreasing per ring so that a span's children
   always lie inside it even if [gettimeofday] steps back. *)
let stamp r =
  let t = Unix.gettimeofday () -. Atomic.get t0 in
  if t < r.last_t then r.last_t
  else begin
    r.last_t <- t;
    t
  end

let push r ~seq ~t payload =
  let tail = Atomic.get r.tail in
  if tail - Atomic.get r.head >= capacity then Atomic.incr dropped_total
  else begin
    r.slots.(tail mod capacity) <- { seq; t; dom = r.rdom; payload };
    Atomic.set r.tail (tail + 1)
  end

let emit payload =
  if Atomic.get on then begin
    let r = Domain.DLS.get ring_key in
    push r ~seq:(Atomic.fetch_and_add seq_counter 1) ~t:(stamp r) payload
  end

(* ------------------------------------------------------------------ *)
(* Sinks and draining                                                  *)
(* ------------------------------------------------------------------ *)

let sinks_lock = Mutex.create ()
let sinks : (int * (event -> unit)) list ref = ref []
let next_sink_id = ref 0

let add_sink f =
  Mutex.lock sinks_lock;
  let id = !next_sink_id in
  incr next_sink_id;
  sinks := !sinks @ [ (id, f) ];
  Mutex.unlock sinks_lock;
  id

let remove_sink id =
  Mutex.lock sinks_lock;
  sinks := List.filter (fun (i, _) -> i <> id) !sinks;
  Mutex.unlock sinks_lock

let drain_lock = Mutex.create ()

let drain () =
  if (Domain.self () :> int) = Atomic.get drainer && Mutex.try_lock drain_lock
  then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock drain_lock)
      (fun () ->
        Mutex.lock sinks_lock;
        let snap_sinks = !sinks in
        Mutex.unlock sinks_lock;
        Mutex.lock registry_lock;
        let rings = !registry in
        Mutex.unlock registry_lock;
        let collected = ref [] in
        List.iter
          (fun r ->
            (* Read [tail] once: records published while we copy are
               picked up by the next drain. *)
            let tail = Atomic.get r.tail in
            for i = Atomic.get r.head to tail - 1 do
              collected := r.slots.(i mod capacity) :: !collected
            done;
            Atomic.set r.head tail)
          rings;
        List.sort (fun a b -> compare a.seq b.seq) !collected
        |> List.iter (fun ev -> List.iter (fun (_, s) -> s ev) snap_sinks))

(* ------------------------------------------------------------------ *)
(* Spans and phases                                                    *)
(* ------------------------------------------------------------------ *)

let word_bytes = float_of_int (Sys.word_size / 8)

let gc_sample phase =
  let s = Gc.quick_stat () in
  emit
    (Gc_sample
       {
         phase;
         minor_words = s.Gc.minor_words;
         major_words = s.Gc.major_words;
         heap_mb = float_of_int s.Gc.heap_words *. word_bytes /. 1e6;
         major_collections = s.Gc.major_collections;
       })

let span ~phase ~cat ~args name f =
  if not (Atomic.get on) then f ()
  else begin
    let r = Domain.DLS.get ring_key in
    let parent = r.open_span in
    let id = Atomic.fetch_and_add seq_counter 1 in
    let t_begin = stamp r in
    let s = { id; parent; name; cat; args; phase } in
    push r ~seq:id ~t:t_begin (Span_begin s);
    r.open_span <- id;
    if phase then drain ();
    Fun.protect
      ~finally:(fun () ->
        r.open_span <- parent;
        if phase then gc_sample name;
        let t = stamp r in
        push r
          ~seq:(Atomic.fetch_and_add seq_counter 1)
          ~t
          (Span_end { span = s; wall_s = t -. t_begin });
        if phase then drain ())
      f
  end

let with_span ?(cat = "ftes") ?(args = []) name f =
  span ~phase:false ~cat ~args name f

let with_phase ?(cat = "ftes") ?(args = []) name f =
  span ~phase:true ~cat ~args name f

(* ------------------------------------------------------------------ *)
(* JSON and rendering                                                  *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 10) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* %.17g would round-trip every float, but 9 significant digits are
   plenty for costs, GC words, metrics and timestamps and keep the
   output readable; non-finite values become strings, as JSON has no
   literal for them. *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.9g" f
  else json_string (string_of_float f)

let to_json ev =
  let line typ fields =
    Some
      (Printf.sprintf "{\"seq\": %d, \"t\": %s, \"dom\": %d, \"type\": \"%s\"%s}"
         ev.seq (json_float ev.t) ev.dom typ
         (String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %s" k v) fields)))
  in
  let str = json_string and num = json_float and int = string_of_int in
  match ev.payload with
  | Span_begin { phase = false; _ } | Span_end { span = { phase = false; _ }; _ }
    ->
      None
  | Span_begin { name; _ } -> line "phase-start" [ ("phase", str name) ]
  | Span_end { span = { name; _ }; wall_s } ->
      line "phase-finish" [ ("phase", str name); ("wall_s", num wall_s) ]
  | Incumbent { source; cost; evals; wall_s } ->
      line "incumbent"
        [
          ("source", str source); ("cost", num cost); ("evals", int evals);
          ("wall_s", num wall_s);
        ]
  | Validation_progress { backend; cleared; total } ->
      line "validation-progress"
        [ ("backend", str backend); ("cleared", int cleared); ("total", int total) ]
  | Corpus_outcome { id; ok; verdict; wall_ms } ->
      line "corpus-outcome"
        [
          ("id", str id); ("ok", string_of_bool ok); ("verdict", str verdict);
          ("wall_ms", num wall_ms);
        ]
  | Gc_sample { phase; minor_words; major_words; heap_mb; major_collections }
    ->
      line "gc-sample"
        [
          ("phase", str phase); ("minor_words", num minor_words);
          ("major_words", num major_words); ("heap_mb", num heap_mb);
          ("major_collections", int major_collections);
        ]
  | Worker_start { member } -> line "worker-start" [ ("member", str member) ]
  | Worker_finish { member; cost; wall_s } ->
      line "worker-finish"
        [ ("member", str member); ("cost", num cost); ("wall_s", num wall_s) ]

let ndjson_sink oc ev =
  match to_json ev with
  | Some line ->
      output_string oc line;
      output_char oc '\n';
      flush oc
  | None -> ()

let progress_sink oc ev =
  let line fmt = Printf.fprintf oc ("[%7.2fs] " ^^ fmt ^^ "\n%!") ev.t in
  match ev.payload with
  | Span_begin { phase = false; _ } | Span_end { span = { phase = false; _ }; _ }
    ->
      ()
  | Span_begin { name; _ } -> line ">> %s" name
  | Span_end { span = { name; _ }; wall_s } ->
      line "<< %s (%.2f s)" name wall_s
  | Incumbent { source; cost; evals; wall_s } ->
      line "   %s incumbent %g (%d evals, %.2f s)" source cost evals wall_s
  | Validation_progress { backend; cleared; total } ->
      if total > 0 then
        line "   validate %s %d/%d scenarios" backend cleared total
      else line "   validate %s %d cube(s)" backend cleared
  | Corpus_outcome { id; ok; verdict; wall_ms } ->
      line "   corpus %-34s %s (%s, %.1f ms)" id
        (if ok then "ok" else "FAILED")
        verdict wall_ms
  | Gc_sample { phase; heap_mb; major_collections; _ } ->
      line "   gc %s: heap %.1f MB, %d major" phase heap_mb major_collections
  | Worker_start { member } -> line "|> %s" member
  | Worker_finish { member; cost; wall_s } ->
      line "<| %s final %g (%.2f s)" member cost wall_s
