(* Symbolic scenario-family validation: replay whole *cubes* of
   condition vectors through the compiled schedule table instead of one
   packed row at a time. See symbolic.mli for the contract; the notes
   here cover the exactness argument, which is the part that is easy to
   get wrong.

   A cube fixes a subset of condition fields to {absent, present
   no-fault, present fault} and leaves the rest free; it denotes the
   set of complete scenarios (members) consistent with those fixations.
   The replay of a cube mirrors [Compiled.replay_one] with two twists:

   - Existence guards are never split on. A vertex is [In] (exists in
     every member), [Out] (in none) or [Maybe]; [Maybe] is fine because
     every check below is anyway gated on a satisfiability query that
     restricts to the members where its vertices exist. Splitting on
     existence guards would fix every condition and collapse the cube
     set into the explicit enumeration.

   - Column guards are tested *relative to the vertex guard*: a column
     field fixed by the vertex guard must simply agree (the column is
     dead for existing members otherwise); a field fixed by the cube is
     compared; only a field fixed by neither actually distinguishes
     members, and that is the single place a cube splits (three ways:
     absent / present no-fault / present fault).

   With every column test uniform across (existing) members, the chosen
   columns and all float quantities of the replay are member-
   independent. Each potential violation then fires for *some* member
   iff the associated existence query is satisfiable:

     Missing/Ambiguous activation, Release, Distributed knowledge
                                -> SAT(cube /\ vguard vid)
     Never/Ambiguous/Early broadcast -> SAT(cube /\ vguard cv)
     Causality                  -> SAT(cube /\ vguard vid /\ vguard pred)
     Resource overlap           -> SAT(cube /\ vguard a /\ vguard b)
     Global deadline            -> exists vid with finish > deadline
                                   and SAT(cube /\ vguard vid)
     Local deadline             -> per copy, like the global one

   SAT is a tiny constrained DFS over the scenario family (existence
   guards only reference earlier conditions, so presence is decided by
   the prefix; values branch no-fault first under the fault budget);
   its witness row is both the proof and the concrete counterexample,
   which [Compiled.replay_one] on a one-row space then replays
   explicitly — so every reported violation is a genuine explicit
   violation by construction.

   Splitting partitions a cube's member set, but a child can be empty:
   fixing a value the existence structure forbids (say, a fault on a
   condition whose whole chain prefix the cube holds fault-free) yields
   a cube with no complete scenario inside. Such cubes prove nothing
   and — worse — their column guards still read as Mixed, so they would
   keep splitting toward the full 3^n syntactic cube tree even when the
   member set is tiny. Every replay therefore opens with a feasibility
   query (member_exists against no extra guards); empty cubes are
   dropped on the spot. Feasible leaves partition the scenario set, so
   the total replay count is bounded by the member count times the
   split depth rather than by the syntactic tree.

   Cleared cubes enter an antichain. A clean replay that consulted no
   SAT query read only (a) vertex-guard fields and (b) the cube fields
   accumulated in its support mask, so it may be generalized to that
   support before insertion: any cube agreeing on the support replays
   to the same uniform choices and the same passing float checks. A
   replay that did consult SAT is inserted ungeneralized (a larger cube
   could flip an unsat gate to sat). Failing cubes never enter the
   antichain, so subsumption pruning cannot mask a violation.

   Worklist processing is round-based: the pending cubes of a round are
   pruned against the antichain, replayed in parallel, and merged back
   in input order (children appended absent / no-fault / fault), so the
   verdict, the witness set and the violation list are identical for
   every [jobs] value. *)

module Cond = Ftes_ftcpg.Cond
module Condvec = Ftes_ftcpg.Condvec
module Ftcpg = Ftes_ftcpg.Ftcpg
module Table = Ftes_sched.Table
module Telemetry = Ftes_util.Telemetry
module Events = Ftes_util.Events

let c_cubes = Telemetry.counter "sim.symbolic.cubes"
let c_splits = Telemetry.counter "sim.symbolic.splits"
let c_subsumed = Telemetry.counter "sim.symbolic.subsumed"
let c_empties = Telemetry.counter "sim.symbolic.empties"
let c_sat = Telemetry.counter "sim.symbolic.sat_queries"

let fpw = Condvec.fields_per_word
let eps = Compiled.eps

type stats = {
  cubes : int;
  splits : int;
  subsumed : int;
  empties : int;
  sat_queries : int;
  witnesses : int;
  antichain : int;
  rounds : int;
}

(* A cube: [cmask] has both bits of every fixed field set; [cbits]
   holds, within the mask, 0 = absent, 1 = present no-fault, 3 =
   present fault (the Condvec row encoding). Free fields are zero in
   both. *)
type cube = { cmask : int array; cbits : int array }

let top words = { cmask = Array.make words 0; cbits = Array.make words 0 }

let fix cube idx v =
  let w = idx / fpw and shift = 2 * (idx mod fpw) in
  let cmask = Array.copy cube.cmask and cbits = Array.copy cube.cbits in
  cmask.(w) <- cmask.(w) lor (3 lsl shift);
  cbits.(w) <- cbits.(w) land lnot (3 lsl shift) lor (v lsl shift);
  { cmask; cbits }

(* [a] subsumes [b] iff every fixation of [a] appears identically in
   [b] — then b's members are a subset of a's. *)
let subsumes a b =
  let n = Array.length a.cmask in
  let rec go w =
    w >= n
    || (a.cmask.(w) land b.cmask.(w) = a.cmask.(w)
       && b.cbits.(w) land a.cmask.(w) = a.cbits.(w)
       && go (w + 1))
  in
  go 0

(* Lowest fixed-or-tested field index inside a word mask. *)
let field_of_bit w m =
  let rec go shift =
    if (m lsr shift) land 3 <> 0 then (w * fpw) + (shift / 2)
    else go (shift + 2)
  in
  go 0

type tri = True | False | Mixed of int

(* Truth of a packed guard over a cube, reading only cube fixations;
   covered fields are accumulated into [support] (they were read, so a
   generalization must keep them). *)
let test_guard support cube gm gb =
  let n = Array.length gm in
  let mixed = ref (-1) in
  let ok = ref True in
  (try
     for w = 0 to n - 1 do
       let m = gm.(w) in
       if m <> 0 then begin
         let covered = m land cube.cmask.(w) in
         support.(w) <- support.(w) lor covered;
         if cube.cbits.(w) land covered <> gb.(w) land covered then begin
           ok := False;
           raise Exit
         end;
         let free = m land lnot cube.cmask.(w) in
         if free <> 0 && !mixed < 0 then mixed := field_of_bit w free
       end
     done
   with Exit -> ());
  match !ok with
  | False -> False
  | _ -> if !mixed >= 0 then Mixed !mixed else True

(* Truth of a column guard relative to a vertex guard: fields the
   vertex guard fixes must agree (else the column is dead for every
   existing member); remaining fields resolve against the cube. *)
let test_col support cube vm vb gm gb =
  let n = Array.length gm in
  let mixed = ref (-1) in
  let ok = ref True in
  (try
     for w = 0 to n - 1 do
       let m = gm.(w) in
       if m <> 0 then begin
         let on_v = m land vm.(w) in
         if gb.(w) land on_v <> vb.(w) land on_v then begin
           ok := False;
           raise Exit
         end;
         let rest = m land lnot vm.(w) in
         let covered = rest land cube.cmask.(w) in
         support.(w) <- support.(w) lor covered;
         if cube.cbits.(w) land covered <> gb.(w) land covered then begin
           ok := False;
           raise Exit
         end;
         let free = rest land lnot cube.cmask.(w) in
         if free <> 0 && !mixed < 0 then mixed := field_of_bit w free
       end
     done
   with Exit -> ());
  match !ok with
  | False -> False
  | _ -> if !mixed >= 0 then Mixed !mixed else True

(* ------------------------------------------------------------------ *)
(* Satisfiability over the scenario family                             *)
(* ------------------------------------------------------------------ *)

type fam_ctx = {
  u : Condvec.universe;
  nconds : int;
  words : int;
  budget : int;
  eguards : Condvec.guard array;  (* existence guard per field *)
  gmask : int array array;
  gbits : int array array;
      (* trie node -> the packed (mask, bits) words of its guard *)
}

(* The packed guard of every node of the compiled table's guard trie:
   each node's test ORed into its parent's words, in one pre-order
   pass. A node's parent is the innermost node on the stack whose
   subtree still spans it. *)
let node_guards (c : Compiled.t) words =
  let ix = c.Compiled.index in
  let nn = Array.length ix.Compiled.tskip in
  let gmask = Array.make nn [||] and gbits = Array.make nn [||] in
  gmask.(0) <- Array.make words 0;
  gbits.(0) <- Array.make words 0;
  let stack = Array.make nn 0 in
  let top = ref 0 in
  for n = 1 to nn - 1 do
    while ix.Compiled.tskip.(stack.(!top)) <= n do
      decr top
    done;
    let parent = stack.(!top) in
    let m = Array.copy gmask.(parent) and b = Array.copy gbits.(parent) in
    let w = ix.Compiled.tword.(n) in
    m.(w) <- m.(w) lor ix.Compiled.tmask.(n);
    b.(w) <- b.(w) lor ix.Compiled.tbits.(n);
    gmask.(n) <- m;
    gbits.(n) <- b;
    incr top;
    stack.(!top) <- n
  done;
  (gmask, gbits)

(* [test_col] on the guard of trie node [node]. A column whose guard
   lies outside the universe (node -1) applies to no member. *)
let test_node fam support cube vm vb node =
  if node < 0 then False
  else test_col support cube vm vb fam.gmask.(node) fam.gbits.(node)

exception Contradiction

(* Is there a complete scenario inside [cube] implying the guard of
   every trie node of [extra]? Node -1 is never implied. Returns a
   witness row. Presence of condition [i] is forced
   by the prefix (existence guards reference earlier fields only);
   values branch no-fault first under the fault budget, so the witness
   is the minimal-fault member exhibiting the violation. *)
let member_exists fam cube extra =
  let words = fam.words in
  let rm = Array.make words 0 and rb = Array.make words 0 in
  try
    List.iter
      (fun node ->
        if node < 0 then raise Contradiction;
        let gm = fam.gmask.(node) and gb = fam.gbits.(node) in
        for w = 0 to words - 1 do
          let both = rm.(w) land gm.(w) in
          if rb.(w) land both <> gb.(w) land both then raise Contradiction;
          rm.(w) <- rm.(w) lor gm.(w);
          rb.(w) <- rb.(w) lor gb.(w)
        done)
      extra;
    for w = 0 to words - 1 do
      let both = rm.(w) land cube.cmask.(w) in
      if rb.(w) land both <> cube.cbits.(w) land both then raise Contradiction
    done;
    let row = Condvec.create_row fam.u in
    let rec go i faults =
      if i >= fam.nconds then true
      else begin
        let w = i / fpw and shift = 2 * (i mod fpw) in
        let req = (rm.(w) lsr shift) land 3 in
        let reqv = (rb.(w) lsr shift) land 3 in
        let cfix = (cube.cmask.(w) lsr shift) land 3 in
        let cval = (cube.cbits.(w) lsr shift) land 3 in
        if Condvec.row_implies row fam.eguards.(i) then begin
          (* Condition exists: pick no-fault (1) or fault (3). *)
          let allowed v = (req = 0 || reqv = v) && (cfix = 0 || cval = v) in
          let try_value v faults' =
            allowed v
            &&
            (Condvec.set fam.u row i (v = 3);
             if go (i + 1) faults' then true
             else begin
               Condvec.unset fam.u row i;
               false
             end)
          in
          try_value 1 faults || (faults < fam.budget && try_value 3 (faults + 1))
        end
        else
          (* Condition absent: contradicts any demand for presence. *)
          req = 0 && (cfix = 0 || cval = 0) && go (i + 1) faults
      end
    in
    if go 0 0 then Some row else None
  with Contradiction -> None

(* ------------------------------------------------------------------ *)
(* Cube replay                                                         *)
(* ------------------------------------------------------------------ *)

type reply =
  | Split of int  (* free field a column guard distinguishes *)
  | Empty  (* no complete scenario inside the cube *)
  | Clean of { support : int array; sat_used : bool; sats : int }
  | Failed of { witness : Condvec.row; sats : int }

exception Do_split of int
exception Bad of Condvec.row

let st_out = 0 (* vertex exists in no member *)

let rec replay_cube (c : Compiled.t) fam (cube : cube) =
  (* Feasibility gate: an empty cube would still split on Mixed column
     guards, growing the syntactic 3^n tree; drop it before it costs
     anything. The query does not feed the verdict, so it leaves the
     generalization soundness of a later Clean untouched. *)
  if member_exists fam cube [] = None then Empty
  else replay_feasible c fam cube

and replay_feasible (c : Compiled.t) fam (cube : cube) =
  let n = c.nverts in
  let support = Array.make fam.words 0 in
  let sats = ref 1 (* the feasibility query above *) in
  let sat_used = ref false in
  let vm = Array.make n [||] and vb = Array.make n [||] in
  (* status: 0 = Out, 1 = In or Maybe (the distinction never matters:
     every check is SAT-gated). *)
  let status = Array.make n 1 in
  let chosen = Array.make n (-1) in
  let bfinish = Array.make n Float.nan in
  (* The gate: does the potential violation afflict a real member? On
     yes, the witness row aborts the replay; on no, remember that the
     clean verdict leaned on a SAT answer (blocks generalization). *)
  let gate vids =
    incr sats;
    let extra = List.map (fun v -> c.Compiled.vnode.(v)) vids in
    match member_exists fam cube extra with
    | Some row -> raise (Bad row)
    | None -> sat_used := true
  in
  try
    for vid = 0 to n - 1 do
      (* A vertex whose guard lies outside the universe exists in no
         member; the words of an [Out] vertex are never read. *)
      let node = c.Compiled.vnode.(vid) in
      if node < 0 then status.(vid) <- st_out
      else begin
        vm.(vid) <- fam.gmask.(node);
        vb.(vid) <- fam.gbits.(node);
        match test_guard support cube vm.(vid) vb.(vid) with
        | False -> status.(vid) <- st_out
        | True | Mixed _ -> ()
      end
    done;
    (* Activation selection, mirroring the explicit replay: most
       specific applicable column, ties by table order, equal-specific
       different-time columns are ambiguous. *)
    let resolve vid cols =
      let best = ref (-1) in
      let best_size = ref (-1) in
      for j = 0 to Array.length cols - 1 do
        let e = cols.(j) in
        match test_node fam support cube vm.(vid) vb.(vid) e.Compiled.c_node with
        | Mixed f -> raise (Do_split f)
        | False -> ()
        | True ->
            if e.Compiled.c_size > !best_size then begin
              best := j;
              best_size := e.Compiled.c_size
            end
      done;
      !best
    in
    let ambiguous vid cols best =
      let e = cols.(best) in
      let clash = ref false in
      for j = 0 to Array.length cols - 1 do
        let e' = cols.(j) in
        if
          e'.Compiled.c_size = e.Compiled.c_size
          && Float.abs (e'.Compiled.c_start -. e.Compiled.c_start) > eps
        then begin
          match test_node fam support cube vm.(vid) vb.(vid) e'.Compiled.c_node with
          | Mixed f -> raise (Do_split f)
          | False -> ()
          | True -> clash := true
        end
      done;
      !clash
    in
    for vid = 0 to n - 1 do
      if status.(vid) <> st_out then begin
        let cols = c.Compiled.exec.(vid) in
        let best = resolve vid cols in
        if best < 0 then gate [ vid ] (* Missing_activation *)
        else begin
          if ambiguous vid cols best then gate [ vid ];
          chosen.(vid) <- best
        end
      end
    done;
    (* Broadcast arrival of each revealed condition. *)
    for vid = 0 to n - 1 do
      if c.Compiled.vconditional.(vid) && status.(vid) <> st_out
         && chosen.(vid) >= 0
      then begin
        let e = c.Compiled.exec.(vid).(chosen.(vid)) in
        if c.Compiled.nnodes <= 1 then bfinish.(vid) <- e.Compiled.c_finish
        else begin
          let cols = c.Compiled.bcast.(vid) in
          let best = resolve vid cols in
          if best < 0 then gate [ vid ] (* Never_broadcast *)
          else begin
            let b = cols.(best) in
            if ambiguous vid cols best then gate [ vid ];
            if b.Compiled.c_start < e.Compiled.c_finish -. eps then
              gate [ vid ] (* Broadcast_before_produced *);
            bfinish.(vid) <- b.Compiled.c_finish
          end
        end
      end
    done;
    (* Causality, distributed knowledge, release times. *)
    for vid = 0 to n - 1 do
      if status.(vid) <> st_out && chosen.(vid) >= 0 then begin
        let e = c.Compiled.exec.(vid).(chosen.(vid)) in
        let preds = c.Compiled.vpreds.(vid) in
        for pi = 0 to Array.length preds - 1 do
          let p = preds.(pi) in
          if status.(p) <> st_out && chosen.(p) >= 0 then begin
            let pe = c.Compiled.exec.(p).(chosen.(p)) in
            if e.Compiled.c_start < pe.Compiled.c_finish -. eps then
              gate [ vid; p ]
          end
        done;
        let know = c.Compiled.vknow.(vid) in
        for li = 0 to Array.length know - 1 do
          let cv = know.(li) in
          let bf = bfinish.(cv) in
          (* vid's guard carries a literal on cv, so any member where
             vid exists has cv revealed — gating on vguard vid alone is
             exact. *)
          if (not (Float.is_nan bf)) && e.Compiled.c_start < bf -. eps then
            gate [ vid ]
        done;
        let r = c.Compiled.vrelease.(vid) in
        if (not (Float.is_nan r)) && e.Compiled.c_start < r -. eps then
          gate [ vid ]
      end
    done;
    (* Resource exclusivity. *)
    for a = 0 to n - 1 do
      if status.(a) <> st_out && chosen.(a) >= 0 then begin
        let e = c.Compiled.exec.(a).(chosen.(a)) in
        if
          e.Compiled.c_finish -. e.Compiled.c_start > eps
          && e.Compiled.c_lane <> Compiled.no_lane
        then
          for b = a + 1 to n - 1 do
            if status.(b) <> st_out && chosen.(b) >= 0 then begin
              let e' = c.Compiled.exec.(b).(chosen.(b)) in
              if
                e'.Compiled.c_lane = e.Compiled.c_lane
                && e'.Compiled.c_finish -. e'.Compiled.c_start > eps
                && e.Compiled.c_start < e'.Compiled.c_finish -. eps
                && e'.Compiled.c_start < e.Compiled.c_finish -. eps
              then gate [ a; b ]
            end
          done
      end
    done;
    (* Deadlines: a member misses the global deadline iff some vertex
       with a late finish exists in it; same per process copy for local
       deadlines. *)
    for vid = 0 to n - 1 do
      if status.(vid) <> st_out && chosen.(vid) >= 0 then begin
        let f = c.Compiled.exec.(vid).(chosen.(vid)).Compiled.c_finish in
        if f > c.Compiled.deadline +. eps then gate [ vid ]
      end
    done;
    for li = 0 to Array.length c.Compiled.locals - 1 do
      let _, _, d, copies = c.Compiled.locals.(li) in
      for ci = 0 to Array.length copies - 1 do
        let vid = copies.(ci) in
        if status.(vid) <> st_out && chosen.(vid) >= 0 then begin
          let f = c.Compiled.exec.(vid).(chosen.(vid)).Compiled.c_finish in
          if f > d +. eps then gate [ vid ]
        end
      done
    done;
    Clean { support; sat_used = !sat_used; sats = !sats }
  with
  | Do_split f -> Split f
  | Bad row -> Failed { witness = row; sats = !sats }

(* ------------------------------------------------------------------ *)
(* Worklist                                                            *)
(* ------------------------------------------------------------------ *)

let generalize cube support =
  let n = Array.length support in
  let cmask = Array.make n 0 and cbits = Array.make n 0 in
  for w = 0 to n - 1 do
    cmask.(w) <- cube.cmask.(w) land support.(w);
    cbits.(w) <- cube.cbits.(w) land support.(w)
  done;
  { cmask; cbits }

let check_table ?jobs (table : Table.t) =
  let ftcpg = table.Table.ftcpg in
  let family = Ftcpg.scenario_family ftcpg in
  let u = family.Ftcpg.funiverse in
  let c = Compiled.compile table u in
  let gmask, gbits = node_guards c (Condvec.words u) in
  let fam =
    {
      u;
      nconds = Condvec.size u;
      words = Condvec.words u;
      budget = family.Ftcpg.fbudget;
      eguards = family.Ftcpg.fguards;
      gmask;
      gbits;
    }
  in
  let cubes = ref 0 and splits = ref 0 and subsumed = ref 0 in
  let empties = ref 0 in
  let sat_queries = ref 0 and witnesses = ref 0 and rounds = ref 0 in
  let antichain = ref [] in
  let insert entry =
    if List.exists (fun a -> subsumes a entry) !antichain then ()
    else
      antichain := entry :: List.filter (fun a -> not (subsumes entry a)) !antichain
  in
  let scratch = lazy (Compiled.make_scratch c) in
  let confirm row =
    (* Replay the witness explicitly: the reported violations are the
       real explicit violations of that scenario. *)
    let sp = Condvec.singleton u row in
    Compiled.replay_one c sp 0 (Lazy.force scratch)
  in
  let violations = ref [] in
  let rec loop pending =
    match pending with
    | [] -> ()
    | _ ->
        incr rounds;
        let live =
          List.filter
            (fun cb ->
              if List.exists (fun a -> subsumes a cb) !antichain then begin
                incr subsumed;
                Telemetry.incr c_subsumed;
                false
              end
              else true)
            pending
        in
        let replies = Ftes_util.Par.map ?jobs (replay_cube c fam) live in
        let next = ref [] in
        List.iter2
          (fun cb reply ->
            incr cubes;
            Telemetry.incr c_cubes;
            match reply with
            | Split f ->
                incr splits;
                Telemetry.incr c_splits;
                next := fix cb f 3 :: fix cb f 1 :: fix cb f 0 :: !next
            | Empty ->
                incr empties;
                Telemetry.incr c_empties;
                sat_queries := !sat_queries + 1
            | Clean { support; sat_used; sats } ->
                sat_queries := !sat_queries + sats;
                Telemetry.add c_sat sats;
                insert (if sat_used then cb else generalize cb support)
            | Failed { witness; sats } ->
                sat_queries := !sat_queries + sats;
                Telemetry.add c_sat sats;
                incr witnesses;
                violations := List.rev_append (confirm witness) !violations)
          live replies;
        if Events.enabled () then begin
          (* Cube count so far; the eventual total is unknowable up
             front (splits create work), hence total = 0. *)
          Events.emit
            (Events.Validation_progress
               { backend = "symbolic"; cleared = !cubes; total = 0 });
          Events.drain ()
        end;
        loop (List.rev !next)
  in
  loop [ top fam.words ];
  let stats =
    {
      cubes = !cubes;
      splits = !splits;
      subsumed = !subsumed;
      empties = !empties;
      sat_queries = !sat_queries;
      witnesses = !witnesses;
      antichain = List.length !antichain;
      rounds = !rounds;
    }
  in
  (List.rev !violations, stats)

let check ?jobs table = fst (check_table ?jobs table)
let check_stats = check_table

(* ------------------------------------------------------------------ *)
(* Scenario counting for frozen chain structures                       *)
(* ------------------------------------------------------------------ *)

(* Exact scenario count for FT-CPGs whose conditions form disjoint
   chains, each condition guarded by exactly the fault literals of its
   chain prefix (the structure [Ftcpg.build] produces for frozen
   re-execution chains). A chain of c conditions contributes one
   outcome per prefix-fault count j = 0..c; outcomes convolve under the
   global budget. Returns [None] when the structure does not match —
   the count (and with it the [`Auto] heuristic) is only claimed when
   it is provably exact. *)
let frozen_scenario_count ftcpg =
  let family = Ftcpg.scenario_family ftcpg in
  let u = family.Ftcpg.funiverse in
  let n = Condvec.size u in
  let k = family.Ftcpg.fbudget in
  if n = 0 then Some 1.
  else begin
    let lits = Array.make n [] in
    let parent = Array.make n (-1) in
    let child_count = Array.make n 0 in
    let ok = ref true in
    for i = 0 to n - 1 do
      let vid = Condvec.cond_of_index u i in
      let g = (Ftcpg.vertex ftcpg vid).Ftcpg.guard in
      let ls = Cond.literals g in
      lits.(i) <- ls;
      if List.exists (fun (l : Cond.literal) -> not l.Cond.fault) ls then
        ok := false
      else
        match List.rev ls with
        | [] -> ()
        | last :: _ -> (
            match Condvec.index_of_cond u last.Cond.cond with
            | None -> ok := false
            | Some p ->
                parent.(i) <- p;
                child_count.(p) <- child_count.(p) + 1;
                (* the guard must be exactly the parent's guard plus the
                   parent's own fault literal *)
                let expected =
                  lits.(p) @ [ { Cond.cond = last.Cond.cond; fault = true } ]
                in
                if
                  not
                    (List.length ls = List.length expected
                    && List.for_all2
                         (fun (a : Cond.literal) (b : Cond.literal) ->
                           a.Cond.cond = b.Cond.cond && a.Cond.fault = b.Cond.fault)
                         ls expected)
                then ok := false)
    done;
    Array.iter (fun cc -> if cc > 1 then ok := false) child_count;
    if not !ok then None
    else begin
      (* chain lengths: count conditions per root *)
      let chain_len = Hashtbl.create 16 in
      for i = 0 to n - 1 do
        let rec root j = if parent.(j) < 0 then j else root parent.(j) in
        let r = root i in
        Hashtbl.replace chain_len r
          (1 + Option.value (Hashtbl.find_opt chain_len r) ~default:0)
      done;
      let ways = Array.make (k + 1) 0. in
      ways.(0) <- 1.;
      Hashtbl.iter
        (fun _ c ->
          let nw = Array.make (k + 1) 0. in
          for t = 0 to k do
            for j = 0 to min c t do
              nw.(t) <- nw.(t) +. ways.(t - j)
            done
          done;
          Array.blit nw 0 ways 0 (k + 1))
        chain_len;
      Some (Array.fold_left ( +. ) 0. ways)
    end
  end
