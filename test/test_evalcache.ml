(* Tests for the memoized design-evaluation cache: the cache must be a
   pure performance layer (identical search trajectories with the cache
   on or off, for any jobs value) and behave correctly under hash
   collisions and foreign-universe lookups. *)

module Evalcache = Ftes_optim.Evalcache
module Tabu = Ftes_optim.Tabu
module Descent = Ftes_optim.Descent
module Strategy = Ftes_optim.Strategy
module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Graph = Ftes_app.Graph
module Policy = Ftes_app.Policy
module Slack = Ftes_sched.Slack

(* Full design configuration as a comparable string (same idiom as
   test_par.ml): policy and mapping of every process. *)
let config_string (p : Problem.t) =
  let g = Problem.graph p in
  String.concat ";"
    (List.init (Graph.process_count g) (fun pid ->
         Printf.sprintf "%d=%s@[%s]" pid
           (Format.asprintf "%a" Ftes_app.Policy.pp p.Problem.policies.(pid))
           (String.concat ","
              (List.map string_of_int
                 (Mapping.copies p.Problem.mapping ~pid)))))

(* A distinct configuration in the SAME universe (shares the app / arch
   / wcet pointers, so it is cacheable alongside [p]). *)
let variant p =
  let policies = Array.copy p.Problem.policies in
  policies.(0) <- Policy.replication ~k:p.Problem.k;
  let mapping =
    Problem.fastest_mapping ~app:p.Problem.app ~wcet:p.Problem.wcet ~policies
  in
  Problem.with_policies p policies mapping

(* ------------------------------------------------------------------ *)
(* Cached = uncached, bit-identical                                     *)
(* ------------------------------------------------------------------ *)

let quick_opts =
  { Tabu.default_options with iterations = 30; sample = 8; jobs = 2 }

let test_tabu_cache_identical () =
  let problems =
    Helpers.fig5_problem ()
    :: List.init 10 (fun i ->
           Helpers.random_problem ~frozen:false ~mixed_policies:false
             ~processes:10 ~nodes:3 ~k:2 ~seed:(100 + i) ())
  in
  List.iteri
    (fun i p ->
      let b0, l0 = Tabu.optimize quick_opts p in
      let cache = Evalcache.create () in
      let b1, l1 =
        Tabu.optimize { quick_opts with cache = Some cache } p
      in
      Helpers.check_float (Printf.sprintf "problem %d: same length" i) l0 l1;
      Alcotest.(check string)
        (Printf.sprintf "problem %d: same configuration" i)
        (config_string b0) (config_string b1);
      let s = Evalcache.stats cache in
      Alcotest.(check bool)
        (Printf.sprintf "problem %d: cache saw traffic" i)
        true
        (s.Evalcache.lookups > 0))
    problems

let test_tabu_cache_jobs_matrix () =
  List.iter
    (fun seed ->
      let p =
        Helpers.random_problem ~frozen:false ~mixed_policies:false
          ~processes:10 ~nodes:3 ~k:2 ~seed ()
      in
      let run ~cache ~jobs =
        let cache = if cache then Some (Evalcache.create ()) else None in
        let b, l = Tabu.optimize { quick_opts with cache; jobs } p in
        (l, config_string b)
      in
      let reference = run ~cache:false ~jobs:1 in
      List.iter
        (fun (cache, jobs) ->
          let l, c = run ~cache ~jobs in
          Helpers.check_float
            (Printf.sprintf "seed %d cache=%b jobs=%d: length" seed cache jobs)
            (fst reference) l;
          Alcotest.(check string)
            (Printf.sprintf "seed %d cache=%b jobs=%d: config" seed cache jobs)
            (snd reference) c)
        [ (false, 4); (true, 1); (true, 4) ])
    [ 3; 7 ]

let test_descent_cache_identical () =
  let p =
    Helpers.random_problem ~frozen:false ~mixed_policies:false ~processes:10
      ~nodes:4 ~k:3 ~seed:3 ()
  in
  let cache = Evalcache.create () in
  Alcotest.(check string) "policy_sweep"
    (config_string (Descent.policy_sweep p))
    (config_string (Descent.policy_sweep ~cache p));
  let cache = Evalcache.create () in
  Alcotest.(check string) "remap_sweep"
    (config_string (Descent.remap_sweep p))
    (config_string (Descent.remap_sweep ~cache p))

let test_strategy_cache_identical () =
  let spec =
    { Ftes_workload.Gen.default with processes = 12; nodes = 3; seed = 21 }
  in
  let app, arch, wcet = Ftes_workload.Gen.instance spec in
  let inputs = { Strategy.app; arch; wcet; k = 2 } in
  List.iter
    (fun name ->
      let o0 = Strategy.run ~opts:quick_opts inputs name in
      let cache = Evalcache.create () in
      let o1 =
        Strategy.run ~opts:{ quick_opts with cache = Some cache } inputs name
      in
      let label = Strategy.name_to_string name in
      Helpers.check_float (label ^ ": length") o0.Strategy.length
        o1.Strategy.length;
      Helpers.check_float (label ^ ": fto") o0.Strategy.fto o1.Strategy.fto;
      Alcotest.(check string) (label ^ ": config")
        (config_string o0.Strategy.problem)
        (config_string o1.Strategy.problem);
      Alcotest.(check bool) (label ^ ": cache saw traffic") true
        ((Evalcache.stats cache).Evalcache.lookups > 0))
    [ Strategy.MXR; Strategy.MC_global ]

(* ------------------------------------------------------------------ *)
(* Cache mechanics: collisions, universes                              *)
(* ------------------------------------------------------------------ *)

let test_single_shard_collision () =
  (* Two distinct configurations must coexist in one cache without
     clobbering each other, whether or not they share a lock stripe. *)
  let p = Helpers.fig5_problem () in
  let q = variant p in
  Alcotest.(check bool) "distinct signatures" true
    (Evalcache.signature p <> Evalcache.signature q);
  let cache = Evalcache.create () in
  let rp = Evalcache.evaluate cache p in
  let rq = Evalcache.evaluate cache q in
  Helpers.check_float "p correct" (Slack.evaluate p).Slack.length
    rp.Slack.length;
  Helpers.check_float "q correct" (Slack.evaluate q).Slack.length
    rq.Slack.length;
  Helpers.check_float "p hit returns same" rp.Slack.length
    (Evalcache.evaluate cache p).Slack.length;
  Helpers.check_float "q hit returns same" rq.Slack.length
    (Evalcache.evaluate cache q).Slack.length;
  let s = Evalcache.stats cache in
  Alcotest.(check int) "2 hits" 2 s.Evalcache.hits;
  Alcotest.(check int) "2 misses" 2 s.Evalcache.misses;
  Alcotest.(check int) "2 entries" 2 s.Evalcache.entries

let test_signature_sensitivity () =
  let p = Helpers.fig5_problem () in
  let base = Evalcache.signature p in
  Alcotest.(check bool) "ft flag" true
    (base <> Evalcache.signature ~ft:false p);
  Alcotest.(check bool) "k" true
    (base <> Evalcache.signature (Problem.with_k p 1));
  Alcotest.(check bool) "policies + mapping" true
    (base <> Evalcache.signature (variant p));
  (* Mapping-only change (fig5 pins every process to one node, so use a
     multi-node instance): move copy 0 of some process to another of
     its allowed nodes. *)
  let m =
    Helpers.random_problem ~frozen:false ~mixed_policies:false ~processes:8
      ~nodes:3 ~k:2 ~seed:5 ()
  in
  let pid, other =
    List.find_map
      (fun pid ->
        let current = Mapping.node_of m.Problem.mapping ~pid ~copy:0 in
        List.find_opt (fun n -> n <> current)
          (Ftes_arch.Wcet.allowed_nodes m.Problem.wcet ~pid)
        |> Option.map (fun nid -> (pid, nid)))
      (List.init (Graph.process_count (Problem.graph m)) Fun.id)
    |> Option.get
  in
  let moved =
    Problem.with_policies m m.Problem.policies
      (Mapping.remap m.Problem.mapping ~pid ~copy:0 ~nid:other)
  in
  Alcotest.(check bool) "mapping only" true
    (Evalcache.signature m <> Evalcache.signature moved);
  (* And the signature is stable: same configuration, same string. *)
  Alcotest.(check string) "deterministic" base (Evalcache.signature p)

let test_foreign_universe_bypasses () =
  let p = Helpers.fig5_problem () in
  let foreign =
    Helpers.random_problem ~frozen:false ~mixed_policies:false ~processes:6
      ~nodes:2 ~k:2 ~seed:42 ()
  in
  let cache = Evalcache.create () in
  ignore (Evalcache.evaluate cache p);
  let r = Evalcache.evaluate cache foreign in
  Helpers.check_float "foreign result correct"
    (Slack.evaluate foreign).Slack.length r.Slack.length;
  let s = Evalcache.stats cache in
  Alcotest.(check int) "bypass counted" 1 s.Evalcache.bypasses;
  Alcotest.(check int) "foreign not cached" 1 s.Evalcache.entries;
  (* clear unpins the universe: the foreign problem may claim it now. *)
  Evalcache.clear cache;
  ignore (Evalcache.evaluate cache foreign);
  let s = Evalcache.stats cache in
  Alcotest.(check int) "re-pinned after clear" 0 s.Evalcache.bypasses;
  Alcotest.(check int) "cached this time" 1 s.Evalcache.entries

(* ------------------------------------------------------------------ *)
(* Concurrent sharing: one cache hammered by several domains            *)
(* ------------------------------------------------------------------ *)

let test_concurrent_stress () =
  let p =
    Helpers.random_problem ~frozen:false ~mixed_policies:false ~processes:10
      ~nodes:3 ~k:2 ~seed:11 ()
  in
  (* Distinct same-universe configurations (shared app/arch/wcet
     pointers): copy 0 of every process moved to each of its allowed
     nodes, deduplicated by signature. *)
  let g = Problem.graph p in
  let configs =
    let seen = Hashtbl.create 64 in
    List.concat_map
      (fun pid ->
        List.filter_map
          (fun nid ->
            let q =
              Problem.with_policies p p.Problem.policies
                (Mapping.remap p.Problem.mapping ~pid ~copy:0 ~nid)
            in
            let sig_ = Evalcache.signature q in
            if Hashtbl.mem seen sig_ then None
            else begin
              Hashtbl.add seen sig_ ();
              Some (q, (Slack.evaluate q).Slack.length)
            end)
          (Ftes_arch.Wcet.allowed_nodes p.Problem.wcet ~pid))
      (List.init (Graph.process_count g) Fun.id)
  in
  let arr = Array.of_list configs in
  let distinct = Array.length arr in
  Alcotest.(check bool) "enough distinct configurations" true (distinct >= 8);
  let cache = Evalcache.create () in
  let domains = 4 and rounds = 40 in
  let wrong = Atomic.make 0 in
  let worker d () =
    for r = 0 to rounds - 1 do
      for i = 0 to distinct - 1 do
        (* Each domain walks the pool in its own rotation, so misses,
           hits and inserts genuinely interleave across shards. *)
        let q, expected = arr.((i + (7 * d) + r) mod distinct) in
        let len = (Evalcache.evaluate cache q).Slack.length in
        if Float.abs (len -. expected) > 1e-9 then Atomic.incr wrong
      done
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no torn or stale entry ever returned" 0
    (Atomic.get wrong);
  let s = Evalcache.stats cache in
  (* The counters must sum exactly across domains: every evaluate call
     is either a hit or a miss, nothing lost to races. *)
  Alcotest.(check int) "lookups = every call from every domain"
    (domains * rounds * distinct)
    s.Evalcache.lookups;
  Alcotest.(check int) "lookups = hits + misses" s.Evalcache.lookups
    (s.Evalcache.hits + s.Evalcache.misses);
  Alcotest.(check int) "entries = inserts" s.Evalcache.entries
    s.Evalcache.inserts;
  (* Two domains can race the same fresh key and both miss (evaluation
     happens outside the shard locks), but the insert is guarded, so
     the table converges to exactly one entry per configuration. *)
  Alcotest.(check int) "one insert per distinct configuration" distinct
    s.Evalcache.inserts;
  Alcotest.(check bool) "misses at least one per configuration" true
    (s.Evalcache.misses >= distinct);
  Alcotest.(check bool) "warm rounds hit" true
    (s.Evalcache.hits > s.Evalcache.misses);
  Alcotest.(check int) "no foreign traffic" 0 s.Evalcache.bypasses

let test_stats_accounting () =
  let p = Helpers.fig5_problem () in
  let cache = Evalcache.create () in
  Alcotest.(check (float 0.)) "empty hit rate" 0.
    (Evalcache.hit_rate (Evalcache.stats cache));
  ignore (Evalcache.evaluate cache p);
  ignore (Evalcache.evaluate cache p);
  ignore (Evalcache.length cache p);
  let s = Evalcache.stats cache in
  Alcotest.(check int) "lookups" 3 s.Evalcache.lookups;
  Alcotest.(check int) "hits" 2 s.Evalcache.hits;
  Alcotest.(check int) "misses" 1 s.Evalcache.misses;
  Alcotest.(check int) "inserts" 1 s.Evalcache.inserts;
  Helpers.check_float "hit rate" (2. /. 3.) (Evalcache.hit_rate s);
  Evalcache.clear cache;
  let s = Evalcache.stats cache in
  Alcotest.(check int) "cleared lookups" 0 s.Evalcache.lookups;
  Alcotest.(check int) "cleared entries" 0 s.Evalcache.entries

let () =
  Alcotest.run "evalcache"
    [
      ( "identical trajectories",
        [
          Alcotest.test_case "tabu: cache on/off, fig5 + 10 workloads" `Slow
            test_tabu_cache_identical;
          Alcotest.test_case "tabu: cache x jobs matrix" `Slow
            test_tabu_cache_jobs_matrix;
          Alcotest.test_case "descent sweeps" `Quick
            test_descent_cache_identical;
          Alcotest.test_case "strategies (MXR, MC-global)" `Slow
            test_strategy_cache_identical;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "single-shard collision" `Quick
            test_single_shard_collision;
          Alcotest.test_case "signature sensitivity" `Quick
            test_signature_sensitivity;
          Alcotest.test_case "foreign universe bypasses" `Quick
            test_foreign_universe_bypasses;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "4 domains x shared cache stress" `Slow
            test_concurrent_stress;
        ] );
    ];
  Ftes_util.Par.shutdown ()
