(* Schedule-table digest regression over every example instance.

   Each problem in Example_suite.all is built into an FT-CPG and
   scheduled three ways — reference scheduler, incremental scheduler
   with jobs = 1 and with jobs = 4 — and all three Table.pp renderings
   must hash to the pinned digest. Any scheduler change that alters
   output on any example graph (not just Fig. 5/6) fails here.

   To regenerate the pins after an INTENTIONAL output change:
     FTES_PRINT_DIGESTS=1 dune exec test/test_sched_digest.exe *)

module Ftcpg = Ftes_ftcpg.Ftcpg
module Conditional = Ftes_sched.Conditional
module Table = Ftes_sched.Table

let table_digest t =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Table.pp t))

let pinned =
  [
    ("fig3-k1", "005321aca119748f17d1f49ab62771d2");
    ("fig5-k2", "d23e00e82a11db888d50fb5fb1cf5589");
    ("cruise-control-k2", "66f2b40a2be1183224365499a0bfccb1");
    ("vision-k2", "593c5c58179e7d3f4315b90f3555f770");
    ("tradeoff15-k2", "6a270e2e004b7b742f1767bd9c83fa01");
  ]

let () =
  if Sys.getenv_opt "FTES_PRINT_DIGESTS" <> None then begin
    List.iter
      (fun (name, problem) ->
        let f = Ftcpg.build problem in
        let t = Conditional_oracle.schedule f in
        Printf.printf "    (%S, %S);\n%!" name (table_digest t))
      (Ftes_core.Example_suite.all ());
    exit 0
  end

let test_example name problem () =
  let expected = List.assoc name pinned in
  let f = Ftcpg.build problem in
  Alcotest.(check string)
    (name ^ " reference")
    expected
    (table_digest (Conditional_oracle.schedule f));
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s jobs=%d" name jobs)
        expected
        (table_digest (Conditional.schedule ~jobs f)))
    [ 1; 4 ]

let () =
  Alcotest.run "sched_digest"
    [
      ( "example digests",
        List.map
          (fun (name, problem) ->
            Alcotest.test_case name `Quick (test_example name problem))
          (Ftes_core.Example_suite.all ()) );
    ]
