(* A realistic scenario: an adaptive cruise controller and an engine
   monitor sharing three ECUs on a TTP-like TDMA bus.

   - two periodic applications (periods 600 and 300 ms) are merged over
     their hyperperiod, the engine monitor contributing two instances
     (paper, Sec. 4);
   - the brake/throttle actuation messages are frozen: recovery inside
     the controller must stay invisible to the actuator ECU (fault
     containment, paper Sec. 3.3);
   - the synthesized system tolerates k = 2 transient faults per cycle
     and is validated by exhaustive fault injection.

   The instance itself (graphs, architecture, WCET table) lives in
   Ftes_core.Example_suite so the schedule-digest regression test pins
   the exact same problem this executable demonstrates.

   Run with: dune exec examples/cruise_control.exe *)

module Graph = Ftes_app.Graph

let () =
  let app, arch, wcet = Ftes_core.Example_suite.cruise_instance () in
  Format.printf "merged virtual application (hyperperiod %g):@.%a@."
    app.Ftes_app.App.period Ftes_app.App.pp app;
  let g = app.Ftes_app.App.graph in

  let result =
    Ftes_core.Synthesis.synthesize
      ~options:
        {
          Ftes_core.Synthesis.default_options with
          strategy = Ftes_optim.Strategy.MXR;
          compute_fto = true;
        }
      ~app ~arch ~wcet ~k:2 ()
  in
  Format.printf "@.%a@." Ftes_core.Synthesis.pp result;
  let problem = result.Ftes_core.Synthesis.problem in
  Array.iteri
    (fun pid policy ->
      Format.printf "  %-12s %a@." (Graph.process g pid).Graph.pname
        Ftes_app.Policy.pp policy)
    problem.Ftes_ftcpg.Problem.policies;

  (match result.Ftes_core.Synthesis.tables with
  | Ok table ->
      Format.printf "@.%a@." Ftes_sched.Table.pp table;
      (* Show one recovery in action: the worst double-fault trace. *)
      let ftcpg = table.Ftes_sched.Table.ftcpg in
      let space = Ftes_ftcpg.Ftcpg.scenario_space ftcpg in
      let scenarios =
        List.filter_map
          (fun i ->
            if Ftes_ftcpg.Condvec.fault_count space i = 2 then
              Some (Ftes_ftcpg.Condvec.guard_at space i)
            else None)
          (List.init (Ftes_ftcpg.Condvec.count space) Fun.id)
      in
      let worst =
        List.fold_left
          (fun acc s ->
            let o = Ftes_sim.Sim.run table ~scenario:s in
            match acc with
            | Some (w : Ftes_sim.Sim.outcome)
              when w.Ftes_sim.Sim.makespan >= o.Ftes_sim.Sim.makespan ->
                acc
            | _ -> Some o)
          None scenarios
      in
      (match worst with
      | Some w ->
          Format.printf "@.worst double-fault trace:@.%a@."
            Ftes_sim.Sim.pp_outcome w
      | None -> ())
  | Error _ -> Format.printf "tables not produced@.");

  match Ftes_core.Synthesis.validate result with
  | Ok [] -> Format.printf "@.fault-injection validation: OK@."
  | Error why ->
      Format.printf "@.fault-injection validation: not run (%s)@."
        (Ftes_core.Synthesis.no_tables_to_string why);
      exit 1
  | Ok vs ->
      List.iter
        (fun v -> Format.printf "  ! %s@." (Ftes_sim.Violation.to_string v))
        vs;
      exit 1
