(* Tests for the platform model: TDMA and single-channel buses, WCET
   tables with mapping restrictions, architectures. *)

module Bus = Ftes_arch.Bus
module Wcet = Ftes_arch.Wcet
module Arch = Ftes_arch.Arch

(* ------------------------------------------------------------------ *)
(* Single bus                                                          *)
(* ------------------------------------------------------------------ *)

let test_single_tx_time () =
  let b = Bus.single ~setup:2. ~bandwidth:4. () in
  Helpers.check_float "tx" 4.5 (Bus.tx_time b ~size:10.);
  Helpers.check_float "zero size" 0. (Bus.tx_time b ~size:0.);
  Helpers.check_float "round length" 0. (Bus.round_length b);
  Helpers.check_float "slot length" 0. (Bus.slot_length b);
  Helpers.check_float "slot offset" 0. (Bus.slot_offset b ~node:3);
  Alcotest.(check bool) "not tdma" false (Bus.is_tdma b)

let test_single_window () =
  let b = Bus.single ~bandwidth:1. () in
  let s, f = Bus.next_window b ~node:0 ~size:5. ~earliest:7. in
  Helpers.check_float "start immediate" 7. s;
  Helpers.check_float "finish" 12. f

let test_single_errors () =
  Alcotest.check_raises "bandwidth" (Invalid_argument "Bus.single: bandwidth <= 0")
    (fun () -> ignore (Bus.single ~bandwidth:0. ()));
  Alcotest.check_raises "setup" (Invalid_argument "Bus.single: setup < 0")
    (fun () -> ignore (Bus.single ~setup:(-1.) ~bandwidth:1. ()))

(* ------------------------------------------------------------------ *)
(* TDMA bus                                                            *)
(* ------------------------------------------------------------------ *)

let tdma3 () = Bus.tdma ~slot_length:10. ~bandwidth:1. 3

let test_tdma_basics () =
  let b = tdma3 () in
  Alcotest.(check bool) "is tdma" true (Bus.is_tdma b);
  Helpers.check_float "round" 30. (Bus.round_length b);
  Helpers.check_float "tx" 5. (Bus.tx_time b ~size:5.)

let test_tdma_slot_alignment () =
  let b = tdma3 () in
  (* Node 1 owns [10, 20) in each round of length 30. *)
  let s, f = Bus.next_window b ~node:1 ~size:5. ~earliest:0. in
  Helpers.check_float "waits for own slot" 10. s;
  Helpers.check_float "finish" 15. f;
  (* Requesting after the slot start but still inside: mid-slot fit. *)
  let s, f = Bus.next_window b ~node:1 ~size:5. ~earliest:12. in
  Helpers.check_float "mid-slot start" 12. s;
  Helpers.check_float "mid-slot finish" 17. f;
  (* Message no longer fits in the remainder: next round. *)
  let s, _ = Bus.next_window b ~node:1 ~size:5. ~earliest:16. in
  Helpers.check_float "next round" 40. s

let test_tdma_multi_slot () =
  let b = tdma3 () in
  (* 25 units > one slot: spans 3 rounds of node 0's slot, finishing 5
     into the third. *)
  let s, f = Bus.next_window b ~node:0 ~size:25. ~earliest:0. in
  Helpers.check_float "start" 0. s;
  Helpers.check_float "finish" 65. f

let test_tdma_slot_order () =
  let b = Bus.tdma ~slot_order:[| 2; 0; 1 |] ~slot_length:10. ~bandwidth:1. 3 in
  let s, _ = Bus.next_window b ~node:2 ~size:1. ~earliest:0. in
  Helpers.check_float "node 2 first" 0. s;
  let s, _ = Bus.next_window b ~node:0 ~size:1. ~earliest:0. in
  Helpers.check_float "node 0 second" 10. s;
  Helpers.check_float "slot length" 10. (Bus.slot_length b);
  List.iter
    (fun (node, offset) ->
      Helpers.check_float
        (Printf.sprintf "node %d slot offset" node)
        offset (Bus.slot_offset b ~node))
    [ (2, 0.); (0, 10.); (1, 20.) ]

let test_tdma_window_after () =
  let b = tdma3 () in
  let s0, _ = Bus.next_window b ~node:0 ~size:4. ~earliest:0. in
  let s1, _ = Bus.next_window b ~node:0 ~size:4. ~earliest:(s0 +. 1e-9) in
  Alcotest.(check bool) "strictly later" true (s1 > s0)

let test_tdma_errors () =
  Alcotest.check_raises "bad permutation"
    (Invalid_argument "Bus.tdma: slot_order is not a permutation") (fun () ->
      ignore (Bus.tdma ~slot_order:[| 0; 0; 1 |] ~slot_length:1. ~bandwidth:1. 3));
  Alcotest.check_raises "bad node id" (Invalid_argument "Bus.tdma: bad node id")
    (fun () ->
      ignore (Bus.tdma ~slot_order:[| 0; 3; 1 |] ~slot_length:1. ~bandwidth:1. 3));
  Alcotest.check_raises "slot length" (Invalid_argument "Bus.tdma: slot_length <= 0")
    (fun () -> ignore (Bus.tdma ~slot_length:0. ~bandwidth:1. 2));
  Alcotest.check_raises "slot offset of an unknown node"
    (Invalid_argument "Bus.slot_offset: unknown node") (fun () ->
      ignore (Bus.slot_offset (Bus.tdma ~slot_length:1. ~bandwidth:1. 2) ~node:2))

let tdma_props =
  let arb =
    QCheck.make
      ~print:(fun (n, node, size, earliest) ->
        Printf.sprintf "nodes=%d node=%d size=%g earliest=%g" n node size
          earliest)
      QCheck.Gen.(
        int_range 1 6 >>= fun n ->
        int_range 0 (n - 1) >>= fun node ->
        float_range 0.1 40. >>= fun size ->
        float_range 0. 500. >>= fun earliest ->
        return (n, node, size, earliest))
  in
  [
    Helpers.qtest "window starts at or after earliest" arb
      (fun (n, node, size, earliest) ->
        let b = Bus.tdma ~slot_length:10. ~bandwidth:1. n in
        let s, f = Bus.next_window b ~node ~size ~earliest in
        s >= earliest -. 1e-9 && f >= s);
    Helpers.qtest "single-slot window stays inside the node's slot" arb
      (fun (n, node, size, earliest) ->
        let slot = 10. in
        let b = Bus.tdma ~slot_length:slot ~bandwidth:1. n in
        let s, f = Bus.next_window b ~node ~size ~earliest in
        size > slot
        ||
        let round = slot *. float_of_int n in
        let offset = Float.rem s round in
        let slot_start = slot *. float_of_int node in
        offset >= slot_start -. 1e-6
        && f -. s <= slot +. 1e-6
        && offset -. slot_start +. (f -. s) <= slot +. 1e-6);
    Helpers.qtest "windows of different nodes never collide" arb
      (fun (n, node, size, earliest) ->
        n < 2
        ||
        let b = Bus.tdma ~slot_length:10. ~bandwidth:1. n in
        let size = min size 9.9 in
        let other = (node + 1) mod n in
        let s1, f1 = Bus.next_window b ~node ~size ~earliest in
        let s2, f2 = Bus.next_window b ~node:other ~size ~earliest in
        f1 <= s2 +. 1e-9 || f2 <= s1 +. 1e-9);
  ]

(* ------------------------------------------------------------------ *)
(* Wcet                                                                *)
(* ------------------------------------------------------------------ *)

let test_wcet_basics () =
  let w = Wcet.create ~procs:2 ~nodes:3 in
  Wcet.set w ~pid:0 ~nid:0 10.;
  Wcet.set w ~pid:0 ~nid:2 20.;
  Wcet.set w ~pid:1 ~nid:1 5.;
  Alcotest.(check (option (Helpers.approx ()))) "get" (Some 10.)
    (Wcet.get w ~pid:0 ~nid:0);
  Alcotest.(check (option (Helpers.approx ()))) "restricted" None
    (Wcet.get w ~pid:0 ~nid:1);
  Alcotest.(check (list int)) "allowed" [ 0; 2 ] (Wcet.allowed_nodes w ~pid:0);
  Alcotest.(check bool) "fastest" true
    (Wcet.fastest_node w ~pid:0 = Some (0, 10.));
  Helpers.check_float "average" 15. (Wcet.average_wcet w ~pid:0);
  Wcet.forbid w ~pid:0 ~nid:0;
  Alcotest.(check (list int)) "after forbid" [ 2 ] (Wcet.allowed_nodes w ~pid:0)

let test_wcet_validate () =
  let w = Wcet.create ~procs:1 ~nodes:2 in
  Alcotest.check_raises "no allowed node"
    (Invalid_argument "Wcet.validate: process 0 has no allowed node")
    (fun () -> Wcet.validate w);
  Wcet.set w ~pid:0 ~nid:1 3.;
  Wcet.validate w

let test_wcet_map_copy () =
  let w = Wcet.create ~procs:1 ~nodes:1 in
  Wcet.set w ~pid:0 ~nid:0 10.;
  let w2 = Wcet.map (fun c -> c *. 2.) w in
  Alcotest.(check (option (Helpers.approx ()))) "mapped" (Some 20.)
    (Wcet.get w2 ~pid:0 ~nid:0);
  let w3 = Wcet.copy w in
  Wcet.set w3 ~pid:0 ~nid:0 99.;
  Alcotest.(check (option (Helpers.approx ()))) "copy independent" (Some 10.)
    (Wcet.get w ~pid:0 ~nid:0)

let test_wcet_errors () =
  let w = Wcet.create ~procs:1 ~nodes:1 in
  Alcotest.check_raises "bad pid" (Invalid_argument "Wcet: bad process id")
    (fun () -> ignore (Wcet.get w ~pid:5 ~nid:0));
  Alcotest.check_raises "negative" (Invalid_argument "Wcet.set: negative WCET")
    (fun () -> Wcet.set w ~pid:0 ~nid:0 (-1.));
  Alcotest.check_raises "get_exn restricted"
    (Invalid_argument "Wcet.get_exn: process 0 cannot run on node 0")
    (fun () -> ignore (Wcet.get_exn w ~pid:0 ~nid:0))

(* ------------------------------------------------------------------ *)
(* Arch + examples                                                     *)
(* ------------------------------------------------------------------ *)

let test_arch_make () =
  let a = Arch.make ~node_count:3 ~bus:(Arch.default_bus ~node_count:3) () in
  Alcotest.(check int) "nodes" 3 (Arch.node_count a);
  Alcotest.(check string) "name" "N2" (Arch.node a 1).Arch.nname;
  Alcotest.(check (list int)) "ids" [ 0; 1; 2 ] (Arch.node_ids a);
  Alcotest.check_raises "bad id" (Invalid_argument "Arch.node: bad id")
    (fun () -> ignore (Arch.node a 3));
  Alcotest.check_raises "names mismatch"
    (Invalid_argument "Arch.make: names length mismatch") (fun () ->
      ignore
        (Arch.make ~names:[ "a" ] ~node_count:2
           ~bus:(Arch.default_bus ~node_count:2) ()))

let test_examples_fig3 () =
  let arch, wcet = Ftes_arch.Examples.fig3 () in
  Alcotest.(check int) "two nodes" 2 (Arch.node_count arch);
  (* The paper's table: P2 is 40 on N1 and 60 on N2; P3 restricted. *)
  Alcotest.(check (option (Helpers.approx ()))) "P2@N1" (Some 40.)
    (Wcet.get wcet ~pid:1 ~nid:0);
  Alcotest.(check (option (Helpers.approx ()))) "P2@N2" (Some 60.)
    (Wcet.get wcet ~pid:1 ~nid:1);
  Alcotest.(check (option (Helpers.approx ()))) "P3 restricted" None
    (Wcet.get wcet ~pid:2 ~nid:1)

let test_examples_fig5 () =
  let arch, wcet = Ftes_arch.Examples.fig5 () in
  Alcotest.(check int) "two nodes" 2 (Arch.node_count arch);
  (* Forced mapping: P1, P2 on N1; P3, P4 on N2. *)
  Alcotest.(check (list int)) "P1 -> N1" [ 0 ] (Wcet.allowed_nodes wcet ~pid:0);
  Alcotest.(check (list int)) "P3 -> N2" [ 1 ] (Wcet.allowed_nodes wcet ~pid:2)

let () =
  Alcotest.run "archmodel"
    [
      ( "single-bus",
        [
          Alcotest.test_case "tx time" `Quick test_single_tx_time;
          Alcotest.test_case "window" `Quick test_single_window;
          Alcotest.test_case "errors" `Quick test_single_errors;
        ] );
      ( "tdma-bus",
        [
          Alcotest.test_case "basics" `Quick test_tdma_basics;
          Alcotest.test_case "slot alignment" `Quick test_tdma_slot_alignment;
          Alcotest.test_case "multi-slot message" `Quick test_tdma_multi_slot;
          Alcotest.test_case "slot order" `Quick test_tdma_slot_order;
          Alcotest.test_case "window_after" `Quick test_tdma_window_after;
          Alcotest.test_case "errors" `Quick test_tdma_errors;
        ]
        @ tdma_props );
      ( "wcet",
        [
          Alcotest.test_case "basics" `Quick test_wcet_basics;
          Alcotest.test_case "validate" `Quick test_wcet_validate;
          Alcotest.test_case "map and copy" `Quick test_wcet_map_copy;
          Alcotest.test_case "errors" `Quick test_wcet_errors;
        ] );
      ( "arch",
        [
          Alcotest.test_case "make" `Quick test_arch_make;
          Alcotest.test_case "examples fig3" `Quick test_examples_fig3;
          Alcotest.test_case "examples fig5" `Quick test_examples_fig5;
        ] );
    ]
