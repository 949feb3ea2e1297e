(* Tests of the domain-pool parallel engine: ordered deterministic
   merge, exception propagation, nesting, and — the property the whole
   PR rests on — end-to-end determinism of the parallel validator and
   the parallel tabu search against their sequential code paths. *)

module Par = Ftes_util.Par
module Sim = Ftes_sim.Sim
module Tabu = Ftes_optim.Tabu
module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Ftcpg = Ftes_ftcpg.Ftcpg
module Graph = Ftes_app.Graph
module Conditional = Ftes_sched.Conditional

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_map_ordered () =
  let xs = List.init 1000 Fun.id in
  let expected = List.map (fun x -> (x * 7) mod 13) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Par.map ~jobs (fun x -> (x * 7) mod 13) xs))
    [ 1; 2; 4; 7 ]

let test_init_and_map_array () =
  Alcotest.(check (list int))
    "init" (List.init 57 (fun i -> i * i))
    (Par.init ~jobs:3 57 (fun i -> i * i));
  Alcotest.(check (array int))
    "map_array"
    (Array.init 57 (fun i -> i + 1))
    (Par.map_array ~jobs:3 (fun i -> i + 1) (Array.init 57 Fun.id))

let test_edge_sizes () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int)) "empty" [] (Par.map ~jobs succ []);
      Alcotest.(check (list int)) "singleton" [ 2 ] (Par.map ~jobs succ [ 1 ]);
      Alcotest.(check (list int))
        "fewer tasks than jobs" [ 2; 3 ]
        (Par.map ~jobs succ [ 1; 2 ]))
    [ 1; 8 ]

let test_exception_propagates () =
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Par.map ~jobs:4
           (fun x -> if x = 513 then failwith "boom" else x)
           (List.init 1000 Fun.id)))

let cores = Domain.recommended_domain_count ()

let test_nested_runs_sequentially () =
  (* A Par call inside a worker must not spawn further domains — it
     runs sequentially in that worker — and still returns the right
     ordered results. The outer call runs on the pool only when the
     host has a second core: [Par] clamps to the core count, so on one
     core it is the sequential path and never flags a worker. *)
  let table =
    Par.map ~jobs:4
      (fun i ->
        let inner = Par.map ~jobs:4 (fun j -> i * j) (List.init 5 Fun.id) in
        (Par.in_worker (), inner))
      (List.init 8 Fun.id)
  in
  List.iteri
    (fun i (in_worker, inner) ->
      Alcotest.(check bool) "flagged as worker" (cores > 1) in_worker;
      Alcotest.(check (list int))
        "inner results"
        (List.init 5 (fun j -> i * j))
        inner)
    table;
  Alcotest.(check bool) "flag restored at top level" false (Par.in_worker ())

let test_jobs_clamped_to_cores () =
  (* Far more jobs than cores: the call still runs on at most [cores]
     domains, the caller included, and the recorded gauges say so. *)
  let module Events = Ftes_util.Events in
  let module Telemetry = Ftes_util.Telemetry in
  Telemetry.reset ();
  Events.enable ();
  let doms = Array.make 1000 (-1) in
  let ys =
    Fun.protect ~finally:Events.disable (fun () ->
        Par.map ~jobs:64
          (fun i ->
            doms.(i) <- (Domain.self () :> int);
            i + 1)
          (List.init 1000 Fun.id))
  in
  Alcotest.(check (list int)) "results" (List.init 1000 succ) ys;
  Alcotest.(check bool)
    (Printf.sprintf "pool of %d worker(s) within %d core(s)" (Par.pool_size ())
       cores)
    true
    (Par.pool_size () <= cores - 1);
  let used = List.sort_uniq Int.compare (Array.to_list doms) in
  Alcotest.(check bool) "domains used within the cores" true
    (List.length used <= cores);
  let gauge name = List.assoc_opt name (Telemetry.gauges ()) in
  Alcotest.(check (option (float 0.))) "requested gauge" (Some 64.)
    (gauge "par.jobs_requested");
  Alcotest.(check (option (float 0.))) "effective gauge"
    (Some (float_of_int (min 64 cores)))
    (gauge "par.jobs_effective")

let test_wait_loop_drains () =
  (* The caller holds its task until a worker has started one, then
     runs out of tasks and waits. The worker's task emits a record and
     waits for the sink to see it: only the caller's wait loop can
     deliver it before the fan-out returns. *)
  if cores < 2 then begin
    Printf.printf "%d core: the wait loop needs a worker domain; skipped\n%!"
      cores;
    Alcotest.skip ()
  end;
  let module Events = Ftes_util.Events in
  let caller = (Domain.self () :> int) in
  let worker_started = Atomic.make false in
  let seen = Array.init 2 (fun _ -> Atomic.make false) in
  let capture (e : Events.event) =
    match e.Events.payload with
    | Events.Incumbent { evals; _ } -> Atomic.set seen.(evals) true
    | _ -> ()
  in
  let wait_for flag =
    let t0 = Unix.gettimeofday () in
    while (not (Atomic.get flag)) && Unix.gettimeofday () -. t0 < 1.0 do
      Domain.cpu_relax ()
    done;
    Atomic.get flag
  in
  Events.enable ();
  let sink = Events.add_sink capture in
  let outcomes =
    Fun.protect
      ~finally:(fun () ->
        Events.remove_sink sink;
        Events.disable ())
      (fun () ->
        Par.init ~jobs:2 2 (fun i ->
            if (Domain.self () :> int) = caller then begin
              ignore (wait_for worker_started);
              None
            end
            else begin
              Atomic.set worker_started true;
              Events.emit
                (Events.Incumbent
                   { source = "test"; cost = 0.; evals = i; wall_s = 0. });
              Some (wait_for seen.(i))
            end))
  in
  match List.filter_map Fun.id outcomes with
  | [] -> Alcotest.fail "no task ran on a worker domain"
  | delivered ->
      Alcotest.(check (list bool)) "delivered while the task waited"
        (List.map (fun _ -> true) delivered)
        delivered

(* ------------------------------------------------------------------ *)
(* Determinism of the parallel clients (ISSUE satellite)               *)
(* ------------------------------------------------------------------ *)

let small_table ~seed =
  let p = Helpers.random_problem ~processes:6 ~nodes:2 ~k:2 ~seed () in
  Conditional.schedule (Ftcpg.build p)

let test_validate_jobs_identical () =
  List.iter
    (fun seed ->
      let t = small_table ~seed in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: jobs=4 = jobs=1" seed)
        (List.map Ftes_sim.Violation.to_string (Sim.validate ~jobs:1 t))
        (List.map Ftes_sim.Violation.to_string (Sim.validate ~jobs:4 t)))
    [ 1; 2; 3; 4; 5 ]

(* The whole configuration, printable: policy and copy placement of
   every process. *)
let config_string (p : Problem.t) =
  let g = Problem.graph p in
  String.concat ";"
    (List.init (Graph.process_count g) (fun pid ->
         Printf.sprintf "%d=%s@[%s]" pid
           (Format.asprintf "%a" Ftes_app.Policy.pp p.Problem.policies.(pid))
           (String.concat ","
              (List.map string_of_int
                 (Mapping.copies p.Problem.mapping ~pid)))))

let test_tabu_jobs_identical () =
  List.iter
    (fun seed ->
      let p =
        Helpers.random_problem ~frozen:false ~processes:10 ~nodes:3 ~k:2
          ~seed ()
      in
      let opts jobs =
        { Tabu.default_options with iterations = 25; sample = 8; jobs }
      in
      let b1, l1 = Tabu.optimize (opts 1) p in
      let b4, l4 = Tabu.optimize (opts 4) p in
      Helpers.check_float (Printf.sprintf "seed %d: same length" seed) l1 l4;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: same mapping and policies" seed)
        (config_string b1) (config_string b4))
    [ 1; 2; 3; 4; 5 ]

let test_records_in_before_return () =
  (* Every worker that picked a fan-out up has closed its [par.worker]
     span by the time the call returns: nothing of it may reach the
     stream afterwards. A worker that takes the job just before the
     caller drops it is the case this pins; many tiny fan-outs give it
     the chance to happen. *)
  if cores < 2 then begin
    Printf.printf "%d core: no worker domain; skipped\n%!" cores;
    Alcotest.skip ()
  end;
  let module Events = Ftes_util.Events in
  let records = Atomic.make 0 in
  let late = ref 0 in
  Events.enable ();
  let sink = Events.add_sink (fun _ -> Atomic.incr records) in
  Fun.protect
    ~finally:(fun () ->
      Events.remove_sink sink;
      Events.disable ())
    (fun () ->
      let spin us =
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < float_of_int us *. 1e-6 do
          Domain.cpu_relax ()
        done
      in
      for i = 1 to 400 do
        (* Tasks of 0 to 60 us: about a worker's wake-up time, so the
           worker often joins, or finishes, just as the caller runs out
           of tasks. *)
        ignore (Par.map ~jobs:2 spin [ i mod 7 * 10; i mod 5 * 15 ]);
        Events.drain ();
        let at_return = Atomic.get records in
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < 1e-4 do
          Domain.cpu_relax ()
        done;
        Events.drain ();
        if Atomic.get records <> at_return then incr late
      done);
  Alcotest.(check int) "fan-outs with records after their return" 0 !late;
  Alcotest.(check int) "dropped" 0 (Events.dropped ())

let () =
  Alcotest.run "par"
    [
      ( "engine",
        [
          Alcotest.test_case "map ordered merge" `Quick test_map_ordered;
          Alcotest.test_case "init / map_array" `Quick test_init_and_map_array;
          Alcotest.test_case "edge sizes" `Quick test_edge_sizes;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested runs sequentially" `Quick
            test_nested_runs_sequentially;
          Alcotest.test_case "jobs clamped to the cores" `Quick
            test_jobs_clamped_to_cores;
          Alcotest.test_case "wait loop delivers workers' records" `Quick
            test_wait_loop_drains;
          Alcotest.test_case "workers' records are in before return" `Quick
            test_records_in_before_return;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "validate jobs=4 = jobs=1" `Quick
            test_validate_jobs_identical;
          Alcotest.test_case "tabu jobs=4 = jobs=1" `Quick
            test_tabu_jobs_identical;
        ] );
    ];
  Ftes_util.Par.shutdown ()
