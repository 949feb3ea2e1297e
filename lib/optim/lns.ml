(* Diagnostics-driven large-neighborhood restarts. See lns.mli. *)

module Problem = Ftes_ftcpg.Problem
module Ftcpg = Ftes_ftcpg.Ftcpg
module Cond = Ftes_ftcpg.Cond
module Mapping = Ftes_ftcpg.Mapping
module Wcet = Ftes_arch.Wcet
module Slack = Ftes_sched.Slack
module Rng = Ftes_util.Rng
module Telemetry = Ftes_util.Telemetry

let c_diagnoses = Telemetry.counter "lns.diagnoses"
let c_diagnosis_reuses = Telemetry.counter "lns.diagnosis_reuses"

type options = {
  seed : int;
  restarts : int;
  destroy : int;
  repair_iterations : int;
  sample : int;
  diag_max_vertices : int;
  diag_max_violations : int;
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
    diag_max_vertices = 2_000;
    diag_max_violations = 48;
    cache = None;
    stop = None;
    shared = None;
    exchange = false;
  }

let uniq_ints xs = List.sort_uniq compare xs

let diagnostic_targets ?(max_vertices = 2_000) ?(max_violations = 48) problem
    =
  match Ftcpg.build ~max_vertices problem with
  | exception Ftcpg.Too_large _ -> []
  | g -> (
      match Ftes_sched.Conditional.schedule g with
      | exception Ftes_sched.Conditional.Too_many_tracks _ -> []
      | table ->
          let violations =
            Ftes_sim.Sim.validate ~jobs:1 ~stop_after:max_violations table
          in
          if violations = [] then []
          else begin
            let report =
              Ftes_sim.Diagnose.of_violations ~max_shrinks:4 table violations
            in
            (* A condition id is the vid of the conditional vertex that
               produces it, so both the guilty vertex and the fault
               literals of a shrunk counterexample resolve to process
               ids through the vertex table. *)
            let pid_of_vid vid =
              if vid < 0 || vid >= Ftcpg.vertex_count g then None
              else
                match (Ftcpg.vertex g vid).Ftcpg.kind with
                | Ftcpg.Proc_copy { pid; _ } -> Some pid
                | _ -> None
            in
            let of_group (grp : Ftes_sim.Diagnose.group) =
              let from_vertex =
                match (grp.Ftes_sim.Diagnose.kind, grp.vertex) with
                (* local-deadline violations carry the process id
                   directly, everything else an FT-CPG vertex. *)
                | "local-deadline-missed", Some pid -> [ pid ]
                | _, Some vid -> Option.to_list (pid_of_vid vid)
                | _, None -> []
              in
              let from_scenario =
                match grp.Ftes_sim.Diagnose.shrunk with
                | None -> []
                | Some guard ->
                    List.filter_map
                      (fun (l : Cond.literal) ->
                        if l.Cond.fault then pid_of_vid l.Cond.cond else None)
                      (Cond.literals guard)
              in
              from_vertex @ from_scenario
            in
            uniq_ints
              (List.concat_map of_group report.Ftes_sim.Diagnose.groups)
          end)

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
  (* A restart that does not improve returns to [!best], so the same
     design is often diagnosed again; within one run the application,
     architecture and WCET table are fixed, so the evaluator signature
     identifies the design. *)
  let diagnosed = Hashtbl.create 8 in
  let diagnose p =
    let key = Evalcache.signature p in
    match Hashtbl.find_opt diagnosed key with
    | Some targets ->
        Telemetry.incr c_diagnosis_reuses;
        targets
    | None ->
        Telemetry.incr c_diagnoses;
        let targets =
          diagnostic_targets ~max_vertices:opts.diag_max_vertices
            ~max_violations:opts.diag_max_violations p
        in
        Hashtbl.add diagnosed key targets;
        targets
  in
  let best = ref problem in
  let best_len = ref (objective problem) in
  publish !best_len;
  let current = ref problem in
  (try
     for restart = 1 to opts.restarts do
       if stopped () then raise Exit;
       (* Where to strike: the shrunk counterexamples of a failing
          table name the guilty processes; a clean (or inexpansible)
          design falls back to the estimator's critical processes. *)
       let targets =
         match diagnose !current with
         | [] -> slack_targets ?cache:opts.cache !current
         | pids -> pids
       in
       let targets =
         match targets with
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
