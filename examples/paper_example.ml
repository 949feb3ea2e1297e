(* The paper's running example, end to end:

   - Fig. 5a: application of four processes with messages m1, m2, m3,
     transparency on P3, m2, m3;
   - Fig. 5b: its fault-tolerant conditional process graph for k = 2;
   - Fig. 6: the per-node schedule tables produced by conditional
     scheduling.

   Run with: dune exec examples/paper_example.exe *)

let () =
  let ftcpg = Ftes_core.Experiments.fig5 () in
  Format.printf "== Fig. 5b: the FT-CPG ==@.%a@." Ftes_ftcpg.Ftcpg.pp ftcpg;

  (* Copy counts per process — the paper's Fig. 5b has 3 copies of P1,
     6 of P2, 3 of P3 (behind the synchronization node P3^S) and 6 of
     P4. *)
  let g = Ftes_ftcpg.Problem.graph (Ftes_ftcpg.Ftcpg.problem ftcpg) in
  for pid = 0 to Ftes_app.Graph.process_count g - 1 do
    Format.printf "  %s: %d copies@."
      (Ftes_app.Graph.process g pid).Ftes_app.Graph.pname
      (List.length (Ftes_ftcpg.Ftcpg.proc_copies ftcpg ~pid))
  done;

  let table = Ftes_sched.Conditional.schedule ftcpg in
  Format.printf "@.== Fig. 6: schedule tables ==@.%a@." Ftes_sched.Table.pp
    table;
  Format.printf "@.== Fig. 6: matrix layout ==@.%a@."
    (Ftes_sched.Table.pp_matrix ~max_columns:24)
    table;

  (* The transparency requirements: m2, m3 and every copy of P3 keep one
     start time across all 15 fault scenarios. *)
  (match Ftes_sim.Sim.frozen_start_violations table with
  | [] -> Format.printf "transparency: all frozen start times invariant@."
  | vs ->
      List.iter
        (fun v -> Format.printf "  ! %s@." (Ftes_sim.Violation.to_string v))
        vs);

  match Ftes_sim.Sim.validate table with
  | [] ->
      Format.printf
        "fault injection: all %d scenarios execute correctly (worst-case \
         length %g, fault-free %g)@."
        (Ftes_ftcpg.Ftcpg.scenario_count ftcpg)
        (Ftes_sched.Table.schedule_length table)
        (Ftes_sched.Table.no_fault_length table)
  | vs ->
      List.iter
        (fun v -> Format.printf "  ! %s@." (Ftes_sim.Violation.to_string v))
        vs;
      exit 1
