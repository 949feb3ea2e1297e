(* Large-neighborhood restarts on the estimator's critical processes.
   See lns.mli. *)

module Problem = Ftes_ftcpg.Problem
module Mapping = Ftes_ftcpg.Mapping
module Wcet = Ftes_arch.Wcet
module Slack = Ftes_sched.Slack
module Rng = Ftes_util.Rng

type options = {
  seed : int;
  restarts : int;
  destroy : int;
  repair_iterations : int;
  sample : int;
  cache : Evalcache.t option;
  stop : (unit -> bool) option;
  shared : Incumbent.handle option;
  exchange : bool;
}

let default_options =
  {
    seed = 42;
    restarts = 4;
    destroy = 3;
    repair_iterations = 30;
    sample = 12;
    cache = None;
    stop = None;
    shared = None;
    exchange = false;
  }

let slack_targets ?cache problem =
  let result =
    match cache with
    | Some c -> Evalcache.evaluate c problem
    | None -> Slack.evaluate problem
  in
  List.map fst (Slack.critical_processes result)

(* Destroy step: reassign the policy of one target process to a random
   kind (rebuilding its copies' mapping) and kick copy 0 to a random
   allowed node — a much larger perturbation than any single tabu
   move. *)
let perturb ~rng problem pid =
  let k = problem.Problem.k in
  let wcet = problem.Problem.wcet in
  let kind =
    Rng.pick_list rng [ Tabu.Reexec; Tabu.Repl; Tabu.Combined ]
  in
  let p = Tabu.reassign_policy ~k ~wcet problem ~pid kind in
  let current = Mapping.node_of p.Problem.mapping ~pid ~copy:0 in
  let allowed =
    List.filter (fun nid -> nid <> current) (Wcet.allowed_nodes wcet ~pid)
  in
  match allowed with
  | [] -> p
  | _ ->
      let nid = Rng.pick_list rng allowed in
      Problem.with_policies p p.Problem.policies
        (Mapping.remap p.Problem.mapping ~pid ~copy:0 ~nid)

let optimize opts problem =
  let rng = Rng.create opts.seed in
  let objective p =
    match opts.cache with
    | Some c -> Evalcache.length ~ft:true c p
    | None -> Slack.length ~ft:true p
  in
  let stopped () = match opts.stop with Some f -> f () | None -> false in
  let publish len =
    match opts.shared with
    | Some h -> ignore (Incumbent.publish_handle h len)
    | None -> ()
  in
  let best = ref problem in
  let best_len = ref (objective problem) in
  publish !best_len;
  let current = ref problem in
  (try
     for restart = 1 to opts.restarts do
       if stopped () then raise Exit;
       (* Where to strike: the processes whose recovery costs the
          estimate most. *)
       let targets =
         match slack_targets ?cache:opts.cache !current with
         | [] ->
             (* Degenerate instance: perturb anything. *)
             List.init
               (Ftes_app.Graph.process_count (Problem.graph !current))
               Fun.id
         | pids -> pids
       in
       let picked =
         List.filteri (fun i _ -> i < opts.destroy) targets
       in
       let destroyed =
         List.fold_left (fun p pid -> perturb ~rng p pid) !current picked
       in
       (* Repair: deterministic policy descent, then a short tabu
          intensification seeded per restart. *)
       let repaired = Descent.policy_sweep ?cache:opts.cache destroyed in
       let t_opts =
         {
           Tabu.default_options with
           Tabu.seed = opts.seed + (1000 * restart);
           iterations = opts.repair_iterations;
           sample = opts.sample;
           stall_limit = max 10 (opts.repair_iterations / 2);
           jobs = 1;
           cache = opts.cache;
           stop = opts.stop;
           shared = opts.shared;
           exchange = opts.exchange;
         }
       in
       let repaired, len = Tabu.optimize t_opts repaired in
       current := repaired;
       if len < !best_len -. 1e-9 then begin
         best := repaired;
         best_len := len;
         publish len
       end
       else
         (* Restart the next destroy round from the best design so the
            walk cannot drift away for good. *)
         current := !best
     done
   with Exit -> ());
  (!best, !best_len)
