(* The list-based explicit validator, kept as the cross-check oracle of
   [Ftes_sim.Sim.validate]: every complete scenario enumerated as a
   guard list, one [Sim.run] per scenario, then the transparency check.
   It bypasses the packed scenario arena, the compiled table and the
   scenario telemetry counters. The equivalence tests in
   [test_sim_packed] and [test_symbolic] require the library's
   validators to agree with it. *)

module Cond = Ftes_ftcpg.Cond
module Ftcpg = Ftes_ftcpg.Ftcpg
module Sim = Ftes_sim.Sim

(* All complete fault scenarios: every conditional vertex the guard
   reaches gets an outcome, at most [k] of them faults. Depth-first in
   ascending vertex id, fault branch first — the row order of
   [Ftcpg.scenario_space]. *)
let scenarios f =
  let k = (Ftcpg.problem f).Ftes_ftcpg.Problem.k in
  let rec go g faults = function
    | [] -> [ g ]
    | c :: rest when Cond.implies g (Ftcpg.vertex f c).Ftcpg.guard ->
        let branch fault = Cond.add_exn g { Cond.cond = c; fault } in
        (if faults < k then go (branch true) (faults + 1) rest else [])
        @ go (branch false) faults rest
    | _ :: rest -> go g faults rest
  in
  go Cond.true_ 0 (Ftcpg.conditional_vertices f)

let validate ?jobs (table : Ftes_sched.Table.t) =
  Ftes_util.Par.concat_map ?jobs
    (fun s -> (Sim.run table ~scenario:s).Sim.violations)
    (scenarios table.Ftes_sched.Table.ftcpg)
  @ Sim.frozen_start_violations table
