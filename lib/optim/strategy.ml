module Problem = Ftes_ftcpg.Problem
module Policy = Ftes_app.Policy
module Graph = Ftes_app.Graph
module Events = Ftes_util.Events

type name = MXR | MX | MR | SFX | MC_local | MC_global

type outcome = {
  name : name;
  length : float;
  fto : float;
  problem : Ftes_ftcpg.Problem.t;
}

type inputs = {
  app : Ftes_app.App.t;
  arch : Ftes_arch.Arch.t;
  wcet : Ftes_arch.Wcet.t;
  k : int;
}

let all_names = [ MXR; MX; MR; SFX; MC_local; MC_global ]

let name_to_string = function
  | MXR -> "MXR"
  | MX -> "MX"
  | MR -> "MR"
  | SFX -> "SFX"
  | MC_local -> "MC-local"
  | MC_global -> "MC-global"

let initial_problem (i : inputs) policies =
  let mapping = Problem.fastest_mapping ~app:i.app ~wcet:i.wcet ~policies in
  Problem.make ~app:i.app ~arch:i.arch ~wcet:i.wcet ~k:i.k ~policies ~mapping

let reexec_policies (i : inputs) =
  Array.init
    (Graph.process_count i.app.Ftes_app.App.graph)
    (fun _ -> Policy.re_execution ~recoveries:i.k)

let repl_policies (i : inputs) =
  Array.init
    (Graph.process_count i.app.Ftes_app.App.graph)
    (fun _ -> Policy.replication ~k:i.k)

let nft_length ?(opts = Tabu.default_options) (i : inputs) =
  Events.with_phase ~cat:"optim" "strategy.nft-baseline" @@ fun () ->
  let p = initial_problem i (reexec_policies i) in
  let opts =
    { opts with ft_objective = false; policy_moves = false; remap_moves = true }
  in
  let _, len = Tabu.optimize opts p in
  len

let run ?(opts = Tabu.default_options) ?nft (i : inputs) name =
  Events.with_phase ~cat:"optim" ("strategy." ^ name_to_string name)
  @@ fun () ->
  let nft =
    match nft with Some v -> v | None -> nft_length ~opts i
  in
  let cache = opts.Tabu.cache in
  let slack_length p =
    match cache with
    | Some c -> Evalcache.length ~ft:true c p
    | None -> Ftes_sched.Slack.length p
  in
  let finish problem =
    let length = slack_length problem in
    {
      name;
      length;
      fto = Ftes_sched.Slack.fto ~ft_length:length ~nft_length:nft;
      problem;
    }
  in
  match name with
  | MXR ->
      (* Mapping optimization first (the MX phase), then policy
         assignment moves from that configuration — MXR explores a
         superset of MX's space and can only improve on it. *)
      let p = initial_problem i (reexec_policies i) in
      let mx_opts = { opts with policy_moves = false; remap_moves = true } in
      let mx_best, _ = Tabu.optimize mx_opts p in
      (* Chain policy improvements deterministically (the slack term is
         a max over processes — gains come from repeatedly fixing the
         current worst process), then give mapping a chance to adapt to
         the new replicas, then sweep policies once more. *)
      let s1 = Descent.policy_sweep ?cache mx_best in
      let t_opts =
        { opts with policy_moves = false; remap_moves = true;
          seed = opts.seed + 1;
          iterations = opts.iterations / 2 }
      in
      let s2, _ = Tabu.optimize t_opts s1 in
      let s3 = Descent.policy_sweep ?cache s2 in
      let best =
        List.fold_left
          (fun acc cand ->
            if slack_length cand < slack_length acc then cand else acc)
          mx_best [ s1; s2; s3 ]
      in
      finish best
  | MX ->
      let p = initial_problem i (reexec_policies i) in
      let opts = { opts with policy_moves = false; remap_moves = true } in
      let best, _ = Tabu.optimize opts p in
      finish best
  | MR ->
      let p = initial_problem i (repl_policies i) in
      let opts = { opts with policy_moves = false; remap_moves = true } in
      let best, _ = Tabu.optimize opts p in
      finish best
  | SFX ->
      (* Mapping optimized while ignoring fault tolerance, then
         re-execution added on that fixed mapping. *)
      let p = initial_problem i (reexec_policies i) in
      let opts =
        { opts with ft_objective = false; policy_moves = false;
          remap_moves = true }
      in
      let best, _ = Tabu.optimize opts p in
      finish best
  | MC_local ->
      let p = initial_problem i (reexec_policies i) in
      let opts = { opts with policy_moves = false; remap_moves = true } in
      let best, _ = Tabu.optimize opts p in
      finish (Checkpoint.assign_local best)
  | MC_global ->
      let p = initial_problem i (reexec_policies i) in
      let opts = { opts with policy_moves = false; remap_moves = true } in
      let best, _ = Tabu.optimize opts p in
      finish (Checkpoint.global_optimize ?cache (Checkpoint.assign_local best))

let pp_outcome ppf o =
  Format.fprintf ppf "%-9s length %8.1f  FTO %6.1f%%" (name_to_string o.name)
    o.length o.fto
