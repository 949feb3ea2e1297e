(* Host-speed reference.

   The benchmark shares its machine. On a 2-vCPU VM a fixed computation
   was measured running 40–50% slower for tens of seconds at a time,
   and whole 25-second runs of one workload at one seed differed by
   30% in median unit time: far more than any change the benchmark
   should resolve. So the benchmark times this reference just before
   every unit of work and before every set-up, and scales each wall
   time by [nominal_ms] over the median of the latest readings: the
   time the unit would have taken at the host speed where the reference
   takes [nominal_ms].

   The reference follows the CPU's speed and nothing else. It uses no
   library code, allocates nothing and runs on the calling domain only:
   integer and float arithmetic over one array allocated once. It never
   triggers a collection, so neither the runtime's GC settings nor the
   state of the domain pool (parked domains join every stop-the-world
   minor collection) move it; a change to either shows in the scaled
   timings instead of being scaled away. *)

let scratch = Array.make 4096 0

let work () =
  let x = ref 0x2545F4914F6CDD1D in
  let acc = ref 0. in
  for i = 1 to 400_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 4095 in
    scratch.(j) <- scratch.(j) + i;
    acc := !acc +. (float_of_int (scratch.(j) land 1023) *. 1.0001)
  done;
  !x + int_of_float !acc

(* Reference time on a quiet host of the machine the benchmark was
   tuned on (2-vCPU VM, OCaml 5.1.1). *)
let nominal_ms = 2.0

(* One reading: the faster of two, which drops most interrupts. *)
let reading () =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (work ()));
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  Float.min (once ()) (once ())

let window = 15
let recent : float list ref = ref []
let all : float list ref = ref []  (* Every reading of the run. *)

let note () =
  let r = reading () in
  all := r :: !all;
  recent := List.filteri (fun i _ -> i < window - 1) (r :: !recent)

(* Scale factor for a wall time taken now: nominal over the median of
   the latest readings. *)
let factor () = nominal_ms /. Stat.median !recent
