(* In-memory span recorder for the traced run.

   Spans are opened and closed by the benchmark's own code around each
   call into a library layer; the library's own Telemetry and Events
   stay disabled. Every span keeps its name, layer, parent, wall-clock
   interval and the bytes the OCaml runtime allocated (all domains)
   while it was open. Nothing is written until [dump] at the end. *)

type t = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** -1 for a root span. *)
  start : float;
  mutable stop : float;
  alloc0 : float;
  mutable alloc1 : float;
}

let recording = ref false
let next_id = ref 0
let stack : t list ref = ref []
let finished : t list ref = ref []

let now = Unix.gettimeofday

(* Bytes allocated so far by every domain, including finished ones:
   [Gc.quick_stat] folds in the other domains' counters as of their
   last minor collection. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let with_ ~layer name f =
  if not !recording then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        name;
        layer;
        parent;
        start = now ();
        stop = nan;
        alloc0 = allocated_bytes ();
        alloc1 = nan;
      }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.stop <- now ();
      s.alloc1 <- allocated_bytes ();
      stack := List.tl !stack;
      finished := s :: !finished
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let all () = List.rev !finished

let duration s = s.stop -. s.start
let alloc s = s.alloc1 -. s.alloc0

(* Self time: the span's duration minus the time its direct children
   cover (children never overlap: spans are strictly nested on the one
   recording domain). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((try Hashtbl.find child s.parent with Not_found -> 0.) +. duration s))
    spans;
  List.map
    (fun s ->
      (s, duration s -. (try Hashtbl.find child s.id with Not_found -> 0.)))
    spans

(* The root span enclosing [s] ([s] itself for a root). *)
let root_of spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec go s =
    if s.parent < 0 then s
    else match Hashtbl.find_opt by_id s.parent with Some p -> go p | None -> s
  in
  go

let dump path spans =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"name\": %S, \"layer\": %S, \"parent\": %d, \
         \"start_s\": %.6f, \"end_s\": %.6f, \"alloc_bytes\": %.0f}"
        (if i = 0 then "" else ",\n")
        s.id s.name s.layer s.parent s.start s.stop (alloc s))
    spans;
  output_string oc "\n]\n";
  close_out oc
