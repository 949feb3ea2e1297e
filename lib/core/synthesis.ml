module Problem = Ftes_ftcpg.Problem
module Ftcpg = Ftes_ftcpg.Ftcpg
module App = Ftes_app.App
module Strategy = Ftes_optim.Strategy
module Tabu = Ftes_optim.Tabu
module Slack = Ftes_sched.Slack
module Table = Ftes_sched.Table
module Conditional = Ftes_sched.Conditional
module Events = Ftes_util.Events

type limit = Vertices of int | Tracks of int | Fix_iters of int
type no_tables = Not_requested | Limit of limit

let limit_to_string = function
  | Vertices cap ->
      Printf.sprintf "the FT-CPG exceeds the limit of %d vertices" cap
  | Tracks cap ->
      Printf.sprintf "the scenario tree exceeds the limit of %d tracks" cap
  | Fix_iters cap ->
      Printf.sprintf
        "the frozen start times did not settle within the limit of %d \
         iterations"
        cap

let no_tables_to_string = function
  | Not_requested -> "tables not requested"
  | Limit l -> limit_to_string l

type t = {
  problem : Problem.t;
  estimate : Slack.result;
  tables : (Table.t, no_tables) result;
  fto : float option;
}

type options = {
  strategy : Strategy.name;
  tabu : Tabu.options;
  conditional : bool;
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
    sched_jobs = 1;
    compute_fto = false;
    checkpointing = false;
    portfolio = None;
  }

let within_limits build =
  match build () with
  | table -> Ok table
  | exception Ftcpg.Too_large cap -> Error (Vertices cap)
  | exception Conditional.Too_many_tracks cap -> Error (Tracks cap)
  | exception Conditional.Fixpoint_diverged cap -> Error (Fix_iters cap)

let tables ?jobs problem =
  Events.with_phase ~cat:"core" "synthesize.tables" @@ fun () ->
  within_limits (fun () -> Conditional.schedule ?jobs (Ftcpg.build problem))

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
  let tables =
    if options.conditional then
      Result.map_error
        (fun l -> Limit l)
        (tables ~jobs:options.sched_jobs problem)
    else Error Not_requested
  in
  let fto =
    Option.map
      (fun n -> Slack.fto ~ft_length:estimate.Slack.length ~nft_length:n)
      nft
  in
  { problem; estimate; tables; fto }

let schedulable t =
  match t.tables with
  | Ok table -> Table.meets_deadline table
  | Error _ ->
      t.estimate.Slack.length
      <= t.problem.Problem.app.App.deadline +. 1e-9

let validate ?jobs ?mode t =
  Result.map (Ftes_sim.Sim.validate ?jobs ?mode) t.tables

let diagnose ?jobs t = Result.map (Ftes_sim.Diagnose.report ?jobs) t.tables

let pp ppf t =
  Format.fprintf ppf "@[<v>synthesis: estimated worst-case length %g%s@,"
    t.estimate.Slack.length
    (match t.fto with
    | Some f -> Printf.sprintf " (FTO %.1f%%)" f
    | None -> "");
  (match t.tables with
  | Ok table ->
      Format.fprintf ppf
        "%a@,schedule tables: %d entries, worst-case length %g, %d scenarios@,\
         schedulable: %b"
        Ftcpg.pp_summary table.Table.ftcpg
        (Table.entry_count table)
        (Table.schedule_length table)
        (List.length table.Table.tracks)
        (schedulable t)
  | Error why ->
      Format.fprintf ppf
        "no conditional schedule tables@,schedulable: %b (estimate; %s)"
        (schedulable t) (no_tables_to_string why));
  Format.fprintf ppf "@]"
