module Problem = Ftes_ftcpg.Problem
module Ftcpg = Ftes_ftcpg.Ftcpg
module App = Ftes_app.App
module Strategy = Ftes_optim.Strategy
module Tabu = Ftes_optim.Tabu
module Slack = Ftes_sched.Slack
module Table = Ftes_sched.Table
module Events = Ftes_util.Events

type t = {
  problem : Problem.t;
  estimate : Slack.result;
  ftcpg : Ftcpg.t option;
  table : Table.t option;
  fto : float option;
}

type options = {
  strategy : Strategy.name;
  tabu : Tabu.options;
  conditional : bool;
  max_vertices : int;
  sched_jobs : int;
  compute_fto : bool;
  checkpointing : bool;
  portfolio : Ftes_optim.Portfolio.options option;
}

let default_options =
  {
    strategy = Strategy.MXR;
    tabu = Tabu.default_options;
    conditional = true;
    max_vertices = 20_000;
    sched_jobs = 1;
    compute_fto = false;
    checkpointing = false;
    portfolio = None;
  }

let try_tables ~conditional ~max_vertices ~jobs problem =
  if not conditional then (None, None)
  else
    Events.with_phase ~cat:"core" "synthesize.tables" @@ fun () ->
    match Ftcpg.build ~max_vertices problem with
    | exception Ftcpg.Too_large _ -> (None, None)
    | ftcpg -> (
        match Ftes_sched.Conditional.schedule ~jobs ftcpg with
        | exception Ftes_sched.Conditional.Too_many_tracks _ ->
            (Some ftcpg, None)
        | table -> (Some ftcpg, Some table))

let of_problem ?(conditional = true) ?(max_vertices = 20_000) ?(sched_jobs = 1)
    problem =
  let estimate = Slack.evaluate problem in
  let ftcpg, table =
    try_tables ~conditional ~max_vertices ~jobs:sched_jobs problem
  in
  { problem; estimate; ftcpg; table; fto = None }

let synthesize ?(options = default_options) ~app ~arch ~wcet ~k () =
  let args =
    (* Only pay for the attribute list when recording. *)
    if Events.enabled () then
      [
        ("strategy", Events.Str (Strategy.name_to_string options.strategy));
        ("k", Events.Int k);
      ]
    else []
  in
  Events.with_phase ~cat:"core" ~args "synthesize" @@ fun () ->
  let inputs = { Strategy.app; arch; wcet; k } in
  let optimized, nft =
    match options.portfolio with
    | Some popts ->
        (* The portfolio races its member configurations (including the
           checkpointing ones when requested) and computes the
           fault-free baseline once for all of them. *)
        let popts =
          { popts with Ftes_optim.Portfolio.tabu = options.tabu }
        in
        let members =
          Ftes_optim.Portfolio.default_members ~seed:options.tabu.Tabu.seed
            ~sample:options.tabu.Tabu.sample
            ~checkpointing:options.checkpointing ()
        in
        let r = Ftes_optim.Portfolio.run ~opts:popts ~members inputs in
        ( r.Ftes_optim.Portfolio.winner.Ftes_optim.Portfolio.problem,
          Some r.Ftes_optim.Portfolio.nft )
    | None ->
        let nft =
          if options.compute_fto then
            Some (Strategy.nft_length ~opts:options.tabu inputs)
          else None
        in
        let outcome =
          Strategy.run ~opts:options.tabu ?nft inputs options.strategy
        in
        (outcome.Strategy.problem, nft)
  in
  let problem =
    if options.checkpointing && options.portfolio = None then
      Events.with_phase ~cat:"core" "synthesize.checkpointing" (fun () ->
          Ftes_optim.Checkpoint.global_optimize ?cache:options.tabu.Tabu.cache
            optimized)
    else optimized
  in
  let estimate =
    Events.with_phase ~cat:"core" "synthesize.estimate" (fun () ->
        Slack.evaluate problem)
  in
  let ftcpg, table =
    try_tables ~conditional:options.conditional
      ~max_vertices:options.max_vertices ~jobs:options.sched_jobs problem
  in
  let fto =
    Option.map
      (fun n -> Slack.fto ~ft_length:estimate.Slack.length ~nft_length:n)
      nft
  in
  { problem; estimate; ftcpg; table; fto }

let schedulable t =
  match t.table with
  | Some table -> Table.meets_deadline table
  | None ->
      t.estimate.Slack.length
      <= t.problem.Problem.app.App.deadline +. 1e-9

let validate ?jobs ?mode t =
  match t.table with
  | Some table -> Ftes_sim.Sim.validate ?jobs ?mode table
  | None -> []

let diagnose ?jobs t =
  Option.map (fun table -> Ftes_sim.Diagnose.report ?jobs table) t.table

let pp ppf t =
  Format.fprintf ppf "@[<v>synthesis: estimated worst-case length %g%s@,"
    t.estimate.Slack.length
    (match t.fto with
    | Some f -> Printf.sprintf " (FTO %.1f%%)" f
    | None -> "");
  (match t.ftcpg with
  | Some f -> Format.fprintf ppf "%a@," Ftcpg.pp_summary f
  | None -> Format.fprintf ppf "FT-CPG not expanded (over budget)@,");
  (match t.table with
  | Some table ->
      Format.fprintf ppf
        "schedule tables: %d entries, worst-case length %g, %d scenarios@,"
        (Table.entry_count table)
        (Table.schedule_length table)
        (List.length table.Table.tracks)
  | None -> Format.fprintf ppf "no conditional schedule tables@,");
  Format.fprintf ppf "schedulable: %b@]" (schedulable t)
