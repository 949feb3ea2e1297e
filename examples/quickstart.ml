(* Quickstart: synthesize a fault-tolerant configuration for the paper's
   Fig. 3 application (five processes on two nodes, with a mapping
   restriction), tolerating one transient fault per cycle.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. The application (Fig. 3a) and platform (Fig. 3b/c). *)
  let app = Ftes_app.App.fig3 () in
  let arch, wcet = Ftes_arch.Examples.fig3 () in
  Format.printf "%a@.%a@.%a@." Ftes_app.App.pp app Ftes_arch.Arch.pp arch
    Ftes_arch.Wcet.pp wcet;

  (* 2. Synthesize ψ = <F, M, S>: policy assignment, mapping, tables. *)
  let result =
    Ftes_core.Synthesis.synthesize
      ~options:
        {
          Ftes_core.Synthesis.default_options with
          strategy = Ftes_optim.Strategy.MXR;
          compute_fto = true;
        }
      ~app ~arch ~wcet ~k:1 ()
  in
  Format.printf "@.%a@." Ftes_core.Synthesis.pp result;

  (* 3. Inspect the schedule tables (Fig. 6 style). *)
  (match result.Ftes_core.Synthesis.tables with
  | Ok table -> Format.printf "@.%a@." Ftes_sched.Table.pp table
  | Error _ -> Format.printf "no tables produced@.");

  (* 4. Validate by fault injection: every scenario with at most one
     fault must meet the deadline, and frozen items must keep a single
     start time. *)
  match Ftes_core.Synthesis.validate result with
  | Ok [] -> Format.printf "@.fault-injection validation: OK@."
  | Error why ->
      Format.printf "@.fault-injection validation: not run (%s)@."
        (Ftes_core.Synthesis.no_tables_to_string why);
      exit 1
  | Ok violations ->
      Format.printf "@.validation failed:@.";
      List.iter
        (fun v -> Format.printf "  ! %s@." (Ftes_sim.Violation.to_string v))
        violations;
      exit 1
