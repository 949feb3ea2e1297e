(* The deterministic instance registry: a pure enumeration of 160+
   pinned instances. Everything here is derived from loop indices and
   constants — no clocks, no ambient randomness — so two builds of the
   registry are structurally equal and the manifest can pin digests. *)

module Gen = Ftes_workload.Gen
module I = Instance

let shapes = [ I.Uniform; I.Deep; I.Bursty ]
let buses = [ Gen.Tdma; Gen.Single ]

let shape_code = function I.Uniform -> "u" | I.Deep -> "d" | I.Bursty -> "b"

let shape_name = function
  | I.Uniform -> "uniform"
  | I.Deep -> "deep"
  | I.Bursty -> "bursty"

let bus_code = function Gen.Tdma -> "td" | Gen.Single -> "sb"
let bus_name = function Gen.Tdma -> "tdma" | Gen.Single -> "single"

(* WCET heterogeneity profiles: paper-like uniform draws, strongly
   heterogeneous (wide range), near-flat (narrow range, low jitter). *)
type wcet_profile = Wuniform | Whetero | Wflat

let wcet_profiles = [ Wuniform; Whetero; Wflat ]
let wcet_code = function Wuniform -> "u" | Whetero -> "h" | Wflat -> "f"

let wcet_name = function
  | Wuniform -> "uniform"
  | Whetero -> "hetero"
  | Wflat -> "flat"

let apply_wcet_profile spec = function
  | Wuniform -> spec
  | Whetero -> { spec with Gen.wcet_min = 5.; wcet_max = 400. }
  | Wflat -> { spec with Gen.wcet_min = 40.; wcet_max = 60.; wcet_jitter = 0.1 }

let apply_shape spec = function
  | I.Uniform -> spec
  | I.Deep ->
      {
        spec with
        Gen.layers = max 4 (spec.Gen.processes * 2 / 3);
        extra_edge_prob = 0.1;
      }
  | I.Bursty -> { spec with Gen.layers = 3; burstiness = 0.7; extra_edge_prob = 0.2 }

let gen_id ~prefix ~shape ~spec ~k ~profile ~extra =
  Printf.sprintf "%s-%s%dx%d-k%d-%s-f%02.0f-w%s%s-s%d" prefix
    (shape_code shape) spec.Gen.processes spec.Gen.nodes k
    (bus_code spec.Gen.bus)
    (spec.Gen.frozen_msg_prob *. 100.)
    (wcet_code profile) extra spec.Gen.seed

let gen_axes ~shape ~spec ~k ~profile ~check ~class_ =
  [
    ("source", "generated");
    ("shape", shape_name shape);
    ("bus", bus_name spec.Gen.bus);
    ("k", string_of_int k);
    ( "transparency",
      if spec.Gen.frozen_msg_prob > 0. || spec.Gen.frozen_proc_prob > 0. then
        "frozen"
      else "none" );
    ("wcet", wcet_name profile);
    ("kind", I.check_kind check);
    ("class", class_);
    ( "size",
      Printf.sprintf "%dx%d" spec.Gen.processes spec.Gen.nodes );
  ]

(* Block A: table-tier instances — small enough for FT-CPG expansion,
   conditional scheduling and (sampled) fault-injection validation.
   shapes x buses x k in 1..3 x transparency in {none, quarter}. *)
let table_block () =
  let idx = ref 0 in
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun bus ->
          List.concat_map
            (fun k ->
              List.map
                (fun frozen ->
                  let i = !idx in
                  incr idx;
                  let procs = if k >= 3 then 6 else 8 in
                  let nodes = match shape with I.Bursty -> 3 | _ -> 2 in
                  let spec =
                    apply_shape
                      {
                        Gen.default with
                        processes = procs;
                        nodes;
                        seed = 100 + (17 * i);
                        bus;
                        frozen_proc_prob = frozen /. 2.;
                        frozen_msg_prob = frozen;
                      }
                      shape
                  in
                  let check =
                    if k <= 2 then I.Exhaustive else I.Sampled 300
                  in
                  let tier = if k = 1 then I.Smoke else I.Standard in
                  {
                    I.id =
                      gen_id ~prefix:"g" ~shape ~spec ~k ~profile:Wuniform
                        ~extra:"";
                    source = I.Generated spec;
                    k;
                    check;
                    tier;
                    axes =
                      gen_axes ~shape ~spec ~k ~profile:Wuniform ~check
                        ~class_:"hard";
                  })
                [ 0.; 0.25 ])
            [ 1; 2; 3 ])
        buses)
    shapes

(* Block B: estimator-tier instances — the sizes and fault hypotheses
   (k up to 7) whose FT-CPG is out of reach; pinned via the scalable
   schedule-length estimator. shapes x buses x k in 2..7 x WCET
   profiles. *)
let estimate_block () =
  let idx = ref 0 in
  List.concat_map
    (fun shape ->
      let shape_idx =
        match shape with I.Uniform -> 0 | I.Deep -> 1 | I.Bursty -> 2
      in
      List.concat_map
        (fun bus ->
          List.concat_map
            (fun k ->
              List.map
                (fun profile ->
                  let i = !idx in
                  incr idx;
                  let procs = 16 + (4 * k) in
                  let nodes = 3 + ((k + shape_idx) mod 3) in
                  let frozen = if k mod 2 = 0 then 0.15 else 0. in
                  let spec =
                    apply_wcet_profile
                      (apply_shape
                         {
                           Gen.default with
                           processes = procs;
                           nodes;
                           seed = 1000 + (13 * i);
                           bus;
                           frozen_proc_prob = frozen /. 2.;
                           frozen_msg_prob = frozen;
                         }
                         shape)
                      profile
                  in
                  let check = I.Estimate in
                  let tier = if k >= 6 then I.Heavy else I.Standard in
                  {
                    I.id = gen_id ~prefix:"g" ~shape ~spec ~k ~profile ~extra:"";
                    source = I.Generated spec;
                    k;
                    check;
                    tier;
                    axes =
                      gen_axes ~shape ~spec ~k ~profile ~check ~class_:"hard";
                  })
                wcet_profiles)
            [ 2; 3; 4; 5; 6; 7 ])
        buses)
    shapes

(* Block C: soft-goal variants — mixed soft/hard scheduling through
   lib/soft, digesting placements and utilities. *)
let soft_block () =
  let idx = ref 0 in
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun soft_prob ->
          List.map
            (fun k ->
              let i = !idx in
              incr idx;
              let nodes = match shape with I.Bursty -> 3 | _ -> 2 in
              let spec =
                apply_shape
                  {
                    Gen.default with
                    processes = 10;
                    nodes;
                    seed = 5000 + (31 * i);
                  }
                  shape
              in
              let check = I.Soft { soft_prob } in
              {
                I.id =
                  gen_id ~prefix:"soft" ~shape ~spec ~k ~profile:Wuniform
                    ~extra:
                      (Printf.sprintf "-p%02.0f" (soft_prob *. 100.));
                source = I.Generated spec;
                k;
                check;
                tier = I.Standard;
                axes =
                  gen_axes ~shape ~spec ~k ~profile:Wuniform ~check
                    ~class_:"soft";
              })
            [ 1; 2 ])
        [ 0.5; 0.7 ])
    shapes

(* Block E: symbolic-validation instances — fully transparent (every
   process and message frozen), compiled to static tables and validated
   with the symbolic scenario-family backend. The small-k ones stay
   cross-checkable against explicit validation (pinned by the test
   suite); at k >= 6 the explicit arena is out of reach and the
   symbolic backend provides the only full-coverage check. *)
let symbolic_block () =
  let idx = ref 0 in
  List.concat_map
    (fun bus ->
      List.map
        (fun (procs, k, tier) ->
          let i = !idx in
          incr idx;
          let spec =
            {
              Gen.default with
              processes = procs;
              nodes = 2;
              seed = 9000 + (23 * i);
              bus;
              frozen_proc_prob = 1.0;
              frozen_msg_prob = 1.0;
            }
          in
          let check = I.Symbolic in
          {
            I.id =
              gen_id ~prefix:"sym" ~shape:I.Uniform ~spec ~k ~profile:Wuniform
                ~extra:"";
            source = I.Generated spec;
            k;
            check;
            tier;
            axes =
              gen_axes ~shape:I.Uniform ~spec ~k ~profile:Wuniform ~check
                ~class_:"hard";
          })
        [
          (8, 2, I.Smoke);
          (10, 3, I.Standard);
          (40, 6, I.Standard);
          (60, 7, I.Heavy);
        ])
    buses

(* Block F: portfolio-quality instances — the deterministic strategy
   race (jobs = 1, fixed member iteration budget) on mid-size workloads
   over both buses. The digest pins the winner and every member's final
   length, so any engine's quality drift regresses the manifest. *)
let portfolio_block () =
  let idx = ref 0 in
  List.map
    (fun (procs, nodes, k, bus, iterations, tier) ->
      let i = !idx in
      incr idx;
      let spec =
        {
          Gen.default with
          processes = procs;
          nodes;
          seed = 7000 + (41 * i);
          bus;
        }
      in
      let check = I.Portfolio { iterations } in
      {
        I.id =
          gen_id ~prefix:"pf" ~shape:I.Uniform ~spec ~k ~profile:Wuniform
            ~extra:(Printf.sprintf "-i%d" iterations);
        source = I.Generated spec;
        k;
        check;
        tier;
        axes =
          gen_axes ~shape:I.Uniform ~spec ~k ~profile:Wuniform ~check
            ~class_:"hard";
      })
    [
      (12, 2, 2, Gen.Tdma, 20, I.Smoke);
      (12, 3, 2, Gen.Single, 20, I.Smoke);
      (* Standard, not Smoke: a full 5-member race on 16 processes runs
         seconds of wall clock — too close to the smoke ceiling once
         the parallel runner oversubscribes a small box. *)
      (16, 3, 3, Gen.Tdma, 25, I.Standard);
      (20, 3, 3, Gen.Single, 30, I.Standard);
      (24, 4, 4, Gen.Tdma, 30, I.Standard);
      (30, 4, 4, Gen.Single, 30, I.Standard);
    ]

(* Block D: the paper's own examples, at several fault hypotheses. *)
let example_block () =
  let ex ~name ~k ~check ~tier =
    {
      I.id = Printf.sprintf "ex-%s-k%d" name k;
      source = I.Example name;
      k;
      check;
      tier;
      axes =
        [
          ("source", "example");
          ("example", name);
          ("k", string_of_int k);
          ("kind", I.check_kind check);
          ("class", "hard");
        ];
    }
  in
  (* fig3's deadline is only met at k = 1 (the quickstart's fault
     hypothesis) — higher k is genuinely unschedulable there. *)
  [
    ex ~name:"fig3" ~k:1 ~check:I.Exhaustive ~tier:I.Smoke;
    ex ~name:"fig5" ~k:2 ~check:I.Exhaustive ~tier:I.Smoke;
    ex ~name:"cruise" ~k:1 ~check:I.Exhaustive ~tier:I.Smoke;
    ex ~name:"cruise" ~k:2 ~check:I.Exhaustive ~tier:I.Standard;
    ex ~name:"vision" ~k:1 ~check:I.Exhaustive ~tier:I.Smoke;
    ex ~name:"vision" ~k:2 ~check:I.Exhaustive ~tier:I.Standard;
    ex ~name:"vision" ~k:3 ~check:(I.Sampled 300) ~tier:I.Standard;
    ex ~name:"tradeoff" ~k:1 ~check:(I.Sampled 400) ~tier:I.Standard;
    ex ~name:"tradeoff" ~k:2 ~check:(I.Sampled 400) ~tier:I.Standard;
  ]

let all () =
  example_block () @ table_block () @ symbolic_block () @ soft_block ()
  @ portfolio_block () @ estimate_block ()

let find id = List.find_opt (fun i -> i.I.id = id) (all ())

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  n = 0
  ||
  let rec at i =
    i + n <= h && (String.sub haystack i n = needle || at (i + 1))
  in
  at 0

let select ?tiers ?filter () =
  List.filter
    (fun i ->
      (match tiers with
      | None | Some [] -> true
      | Some ts -> List.mem i.I.tier ts)
      &&
      match filter with
      | None -> true
      | Some f ->
          contains ~needle:f i.I.id
          || List.exists (fun (_, v) -> contains ~needle:f v) i.I.axes)
    (all ())
