(* The compiled form of a schedule table shared by the explicit
   (arena-replay) and symbolic (cube-replay) validation backends, and
   the one single-scenario replay behind [Sim.run] and
   [Diagnose.shrink]. See compiled.mli for the representation story;
   the checks and their emission order in [replay_one] mirror the
   reference simulator [Sim_oracle.run] exactly, so the violation list
   (values, order, rendered messages) is byte-identical to one
   [Sim_oracle.run] per scenario — the composition the tests keep as
   their oracle ([Sim_oracle.validate]). *)

module Cond = Ftes_ftcpg.Cond
module Condvec = Ftes_ftcpg.Condvec
module Ftcpg = Ftes_ftcpg.Ftcpg
module Problem = Ftes_ftcpg.Problem
module Table = Ftes_sched.Table
module Graph = Ftes_app.Graph
module App = Ftes_app.App
module Arch = Ftes_arch.Arch
module Bus = Ftes_arch.Bus
module Telemetry = Ftes_util.Telemetry
module Events = Ftes_util.Events

let c_scenarios = Telemetry.counter "sim.scenarios"
let c_violations = Telemetry.counter "sim.violations"
let eps = 1e-6

let scenario_name ftcpg scenario =
  Cond.to_string ~name:(Ftcpg.cond_name ftcpg) scenario

let no_lane = min_int

type centry = {
  c_guard : Condvec.guard;
  c_node : int;  (* guard trie node of the column guard *)
  c_size : int;  (* [Cond.size] of the column guard: specificity *)
  c_start : float;
  c_finish : float;
  c_lane : int;  (* exclusivity lane; [no_lane] for local items *)
}

(* Every guard of the table (vertex existence guards and activation
   and broadcast column guards) as one trie over its literals, which
   are sorted by condition id and hence by field index. Equal guards
   end at the same node, so a node id is a guard id. Nodes are laid out
   in pre-order: node [n] tests one literal (the 2-bit field under
   [tmask.(n)] in word [tword.(n)] equals [tbits.(n)]), its subtree
   spans [n, tskip.(n)), and the vertices whose existence guard ends
   at [n] are [tverts.(tvstart.(n)) .. tverts.(tvstart.(n + 1) - 1)],
   ascending. Node 0 is the root: the true guard, whose zero mask every
   row matches. A guard with a literal outside the universe is never
   implied; it gets the node id [never], one past the last node, which
   no walk reaches. *)
type index = {
  tword : int array;
  tmask : int array;
  tbits : int array;
  tskip : int array;
  tvstart : int array;
  tverts : int array;
  never : int;
}

type t = {
  cftcpg : Ftcpg.t;
  nverts : int;
  nnodes : int;
  deadline : float;
  exec : centry array array;  (* vid -> activation columns, table order *)
  bcast : centry array array;  (* vid -> broadcast columns, table order *)
  vguard : Condvec.guard array;
  vconditional : bool array;
  vname : string array;
  vcond_name : string array;
  vpreds : int array array;
  vknow : int array array;
      (* conditions of the vertex guard whose broadcast the activation
         must await (guard tests a condition produced on another node) *)
  vrelease : float array;  (* nan when the vertex has no release time *)
  locals : (int * string * float * int array) array;
      (* (pid, name, local deadline, copies) in process-array order *)
  index : index;
}

(* Trie under construction: nodes in insertion order, each with its
   literal [2 * field + fault], its depth (the [Cond.size] of the guard
   ending there) and its children as a sibling chain. *)
type builder = {
  field_of : int array;  (* condition id -> field index, or -1 *)
  mutable lit : int array;
  mutable depth : int array;
  mutable first_kid : int array;
  mutable next_sib : int array;
  mutable size : int;
}

let builder u ~capacity =
  let top = ref 0 in
  for idx = 0 to Condvec.size u - 1 do
    top := max !top (Condvec.cond_of_index u idx + 1)
  done;
  let field_of = Array.make !top (-1) in
  for idx = 0 to Condvec.size u - 1 do
    field_of.(Condvec.cond_of_index u idx) <- idx
  done;
  let none () = Array.make capacity (-1) in
  {
    field_of;
    lit = none ();
    depth = Array.make capacity 0;
    first_kid = none ();
    next_sib = none ();
    size = 1;
  }

let child b parent lit =
  let k = ref b.first_kid.(parent) in
  while !k >= 0 && b.lit.(!k) <> lit do
    k := b.next_sib.(!k)
  done;
  if !k >= 0 then !k
  else begin
    let k = b.size in
    if k = Array.length b.lit then begin
      let grow a =
        let a' = Array.make (2 * k) (-1) in
        Array.blit a 0 a' 0 k;
        a'
      in
      b.lit <- grow b.lit;
      b.depth <- grow b.depth;
      b.first_kid <- grow b.first_kid;
      b.next_sib <- grow b.next_sib
    end;
    b.lit.(k) <- lit;
    b.depth.(k) <- b.depth.(parent) + 1;
    b.next_sib.(k) <- b.first_kid.(parent);
    b.first_kid.(parent) <- k;
    b.size <- k + 1;
    k
  end

(* The builder node a guard's literals end at, from [node]; -1 when a
   literal lies outside the universe. *)
let rec insert b node = function
  | [] -> node
  | (l : Cond.literal) :: rest ->
      let cond = l.Cond.cond in
      let idx =
        if cond >= 0 && cond < Array.length b.field_of then b.field_of.(cond)
        else -1
      in
      if idx < 0 then -1
      else insert b (child b node ((2 * idx) + Bool.to_int l.Cond.fault)) rest

(* Lay the builder out in pre-order. [vnode] maps each vertex to its
   builder node (-1: never implied); the second result maps builder
   nodes to trie nodes. *)
let layout b ~vnode =
  let n = b.size in
  let pre = Array.make n 0 in
  let tword = Array.make n 0 in
  let tmask = Array.make n 0 in
  let tbits = Array.make n 0 in
  let tskip = Array.make n 0 in
  let next = ref 0 in
  let rec visit k =
    let id = !next in
    pre.(k) <- id;
    incr next;
    if k > 0 then begin
      let idx = b.lit.(k) / 2 in
      let shift = 2 * (idx mod Condvec.fields_per_word) in
      tword.(id) <- idx / Condvec.fields_per_word;
      tmask.(id) <- 3 lsl shift;
      tbits.(id) <- (1 + (2 * (b.lit.(k) land 1))) lsl shift
    end;
    let kid = ref b.first_kid.(k) in
    while !kid >= 0 do
      visit !kid;
      kid := b.next_sib.(!kid)
    done;
    tskip.(id) <- !next
  in
  visit 0;
  let vnode = Array.map (fun k -> if k < 0 then n else pre.(k)) vnode in
  (* Vertices grouped by node, ascending within each node. *)
  let tvstart = Array.make (n + 1) 0 in
  Array.iter
    (fun id -> if id < n then tvstart.(id + 1) <- tvstart.(id + 1) + 1)
    vnode;
  for id = 1 to n do
    tvstart.(id) <- tvstart.(id) + tvstart.(id - 1)
  done;
  let fill = Array.sub tvstart 0 n in
  let tverts = Array.make tvstart.(n) 0 in
  Array.iteri
    (fun vid id ->
      if id < n then begin
        tverts.(fill.(id)) <- vid;
        fill.(id) <- fill.(id) + 1
      end)
    vnode;
  ({ tword; tmask; tbits; tskip; tvstart; tverts; never = n }, pre)

let compile (table : Table.t) (u : Condvec.universe) =
  let ftcpg = table.Table.ftcpg in
  let problem = Ftcpg.problem ftcpg in
  let app = problem.Problem.app in
  let g = app.App.graph in
  let n = Ftcpg.vertex_count ftcpg in
  let tdma = Bus.is_tdma (Arch.bus problem.Problem.arch) in
  (* Lane encoding preserving the distinctions of the reference
     simulator's lane_of:
     CPUs on even ids, TDMA bus lanes (per sending node) on odd ids,
     the single non-TDMA bus lane on -1. *)
  let lane_of vid (e : Table.entry) =
    match e.Table.resource with
    | Table.Node nid -> 2 * nid
    | Table.Bus ->
        if tdma then
          (2
          * Option.value (Ftcpg.vertex ftcpg vid).Ftcpg.src_node ~default:0)
          + 1
        else -1
    | Table.Local -> no_lane
  in
  (* Group the entry list by item in one pass, keeping table order per
     item, which the selection and ambiguity checks below depend on;
     every guard goes into the trie on the way (about one node per
     column on the benchmark's tables). *)
  let b = builder u ~capacity:(List.length table.Table.entries + n + 1) in
  let node_of g = insert b 0 (Cond.literals g) in
  let exec_rev = Array.make n [] in
  let bcast_rev = Array.make n [] in
  List.iter
    (fun (e : Table.entry) ->
      let k = node_of e.Table.guard in
      match e.Table.item with
      | Table.Exec vid -> exec_rev.(vid) <- (k, e) :: exec_rev.(vid)
      | Table.Bcast vid -> bcast_rev.(vid) <- (k, e) :: bcast_rev.(vid))
    table.Table.entries;
  let vnode = Array.init n (fun vid -> node_of (Ftcpg.vertex ftcpg vid).Ftcpg.guard) in
  let index, pre = layout b ~vnode in
  (* Equal guards end at the same node and share one packed form. *)
  let packed = Array.make b.size None in
  let pack_at k g =
    if k < 0 then Condvec.pack_guard u g
    else
      match packed.(k) with
      | Some p -> p
      | None ->
          let p = Condvec.pack_guard u g in
          packed.(k) <- Some p;
          p
  in
  let pack vid (k, (e : Table.entry)) =
    {
      c_guard = pack_at k e.Table.guard;
      c_node = (if k < 0 then index.never else pre.(k));
      c_size = (if k < 0 then Cond.size e.Table.guard else b.depth.(k));
      c_start = e.Table.start;
      c_finish = e.Table.finish;
      c_lane = lane_of vid e;
    }
  in
  let of_rev = Array.mapi (fun vid l -> Array.of_list (List.rev_map (pack vid) l)) in
  let vguard = Array.make n (Condvec.guard_true u) in
  let vconditional = Array.make n false in
  let vname = Array.make n "" in
  let vcond_name = Array.make n "" in
  let vpreds = Array.make n [||] in
  let vknow = Array.make n [||] in
  let vrelease = Array.make n Float.nan in
  for vid = 0 to n - 1 do
    let v = Ftcpg.vertex ftcpg vid in
    vguard.(vid) <- pack_at vnode.(vid) v.Ftcpg.guard;
    vconditional.(vid) <- v.Ftcpg.conditional;
    vname.(vid) <- v.Ftcpg.name;
    vcond_name.(vid) <- Ftcpg.cond_name ftcpg vid;
    vpreds.(vid) <- Array.of_list v.Ftcpg.preds;
    (let decision_node =
       match v.Ftcpg.kind with
       | Ftcpg.Proc_copy _ -> v.Ftcpg.exec_node
       | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ ->
           if v.Ftcpg.on_bus then v.Ftcpg.src_node else None
       | Ftcpg.Sync_proc _ -> None
     in
     match decision_node with
     | None -> ()
     | Some dn ->
         vknow.(vid) <-
           Array.of_list
             (List.filter_map
                (fun (l : Cond.literal) ->
                  match (Ftcpg.vertex ftcpg l.Cond.cond).Ftcpg.exec_node with
                  | Some pn when pn = dn -> None
                  | Some _ | None -> Some l.Cond.cond)
                (Cond.literals v.Ftcpg.guard)));
    match v.Ftcpg.kind with
    | Ftcpg.Proc_copy { pid; _ } ->
        vrelease.(vid) <- (Graph.process g pid).Graph.release
    | Ftcpg.Msg_inst _ | Ftcpg.Sync_msg _ | Ftcpg.Sync_proc _ -> ()
  done;
  let locals =
    Array.to_list (Graph.processes g)
    |> List.filter_map (fun (p : Graph.process) ->
           match p.Graph.local_deadline with
           | None -> None
           | Some d ->
               Some
                 ( p.Graph.pid,
                   p.Graph.pname,
                   d,
                   Array.of_list (Ftcpg.proc_copies ftcpg ~pid:p.Graph.pid) ))
    |> Array.of_list
  in
  {
    cftcpg = ftcpg;
    nverts = n;
    nnodes = Arch.node_count problem.Problem.arch;
    deadline = app.App.deadline;
    exec = of_rev exec_rev;
    bcast = of_rev bcast_rev;
    vguard;
    vconditional;
    vname;
    vcond_name;
    vpreds;
    vknow;
    vrelease;
    locals;
    index;
  }

(* Per-worker scratch, reused across every scenario of a range. After a
   replay it holds the columns that replay chose. A replay stamps the
   trie nodes its row satisfies with a fresh epoch, so a guard holds in
   the current replay exactly when its node carries the current epoch;
   nothing has to be cleared between replays, whatever rows or spaces
   the scratch saw before. [s_exist] lists the vertices of the last
   replay, ascending: the only entries of [s_chosen]/[s_bchosen] it can
   have set, and the only ones the next replay resets. *)
type scratch = {
  s_chosen : int array;  (* vid -> column index in exec.(vid); -1 none *)
  s_bchosen : int array;  (* vid -> column index in bcast.(vid); -1 none *)
  s_stamp : int array;  (* trie node -> epoch of its last satisfying replay *)
  mutable s_epoch : int;
  s_exist : int array;  (* vids existing in the last replay, ascending *)
  mutable s_nexist : int;
  s_active : int array;  (* vids with nonzero-duration activations *)
  s_makespan : float array;  (* one cell, unboxed: latest chosen finish *)
  (* Built on the first violation of a replay only: *)
  mutable s_scenario : Cond.guard option;
  mutable s_label : string option;
  mutable s_violations : Violation.t list;  (* newest first *)
}

let make_scratch c =
  {
    s_chosen = Array.make c.nverts (-1);
    s_bchosen = Array.make c.nverts (-1);
    s_stamp = Array.make (c.index.never + 1) 0;
    s_epoch = 0;
    s_exist = Array.make (max 1 c.nverts) 0;
    s_nexist = 0;
    s_active = Array.make (max 1 c.nverts) 0;
    s_makespan = [| 0. |];
    s_scenario = None;
    s_label = None;
    s_violations = [];
  }

let chosen_exec c scr vid =
  let j = scr.s_chosen.(vid) in
  if j < 0 then None else Some c.exec.(vid).(j)

let chosen_bcast c scr vid =
  let j = scr.s_bchosen.(vid) in
  if j < 0 then None else Some c.bcast.(vid).(j)

let makespan scr = scr.s_makespan.(0)

(* The unpacked scenario and its rendering only appear in violation
   records, so they are built on the first violation of a replay. *)
let fail c scr sp i kind =
  let s =
    match scr.s_scenario with
    | Some g -> g
    | None ->
        let g = Condvec.guard_at sp i in
        scr.s_scenario <- Some g;
        g
  in
  let label =
    match scr.s_label with
    | Some l -> l
    | None ->
        let l = scenario_name c.cftcpg s in
        scr.s_label <- Some l;
        l
  in
  scr.s_violations <-
    Violation.make ~scenario:s ~scenario_label:label kind :: scr.s_violations

(* Shell sort of [a.(0 .. n-1)] in place: the existing vertices come
   out of the trie walk in node order, and every check runs in vertex
   order. *)
let sort_prefix (a : int array) n =
  let gap = ref 1 in
  while (3 * !gap) + 1 < n do
    gap := (3 * !gap) + 1
  done;
  while !gap > 0 do
    let h = !gap in
    for x = h to n - 1 do
      let v = a.(x) in
      let y = ref x in
      while !y >= h && a.(!y - h) > v do
        a.(!y) <- a.(!y - h);
        y := !y - h
      done;
      a.(!y) <- v
    done;
    gap := h / 3
  done

(* Reset the previous replay's choices, then walk the trie over row
   [i]: stamp every satisfied node with a fresh epoch and collect the
   existing vertices, ascending. *)
let walk c sp i scr =
  let ix = c.index in
  let chosen = scr.s_chosen and bchosen = scr.s_bchosen in
  let exist = scr.s_exist in
  for a = 0 to scr.s_nexist - 1 do
    let vid = exist.(a) in
    chosen.(vid) <- -1;
    bchosen.(vid) <- -1
  done;
  let epoch = scr.s_epoch + 1 in
  scr.s_epoch <- epoch;
  let stamp = scr.s_stamp in
  let data = sp.Condvec.data in
  let base = i * sp.Condvec.words in
  let nn = ix.never in
  let ne = ref 0 in
  let nd = ref 0 in
  while !nd < nn do
    let n = !nd in
    if data.(base + ix.tword.(n)) land ix.tmask.(n) = ix.tbits.(n) then begin
      stamp.(n) <- epoch;
      for v = ix.tvstart.(n) to ix.tvstart.(n + 1) - 1 do
        exist.(!ne) <- ix.tverts.(v);
        incr ne
      done;
      nd := n + 1
    end
    else nd := ix.tskip.(n)
  done;
  sort_prefix exist !ne;
  scr.s_nexist <- !ne

let replay_one c sp i scr =
  walk c sp i scr;
  let stamp = scr.s_stamp and epoch = scr.s_epoch in
  let exist = scr.s_exist and ne = scr.s_nexist in
  (* Activation selection: most specific applicable column; first one
     in table order wins ties, any equally specific column with a
     different time is an ambiguity. *)
  let chosen = scr.s_chosen in
  for a = 0 to ne - 1 do
    let vid = exist.(a) in
    let cols = c.exec.(vid) in
    let best = ref (-1) in
    let best_size = ref (-1) in
    for j = 0 to Array.length cols - 1 do
      let e = cols.(j) in
      if e.c_size > !best_size && stamp.(e.c_node) = epoch then begin
        best := j;
        best_size := e.c_size
      end
    done;
    if !best < 0 then
      fail c scr sp i (Violation.Missing_activation { vid; vertex = c.vname.(vid) })
    else begin
      let e = cols.(!best) in
      for j = 0 to Array.length cols - 1 do
        let e' = cols.(j) in
        if
          e'.c_size = e.c_size
          && Float.abs (e'.c_start -. e.c_start) > eps
          && stamp.(e'.c_node) = epoch
        then
          fail c scr sp i
            (Violation.Ambiguous_activation
               {
                 vid;
                 vertex = c.vname.(vid);
                 start = e.c_start;
                 alt_start = e'.c_start;
               })
      done;
      chosen.(vid) <- !best
    end
  done;
  (* Broadcast column of each condition revealed in this scenario; a
     single node broadcasts nothing. *)
  let bchosen = scr.s_bchosen in
  if c.nnodes > 1 then
    for a = 0 to ne - 1 do
      let vid = exist.(a) in
      if c.vconditional.(vid) && chosen.(vid) >= 0 then begin
        let e = c.exec.(vid).(chosen.(vid)) in
        let cols = c.bcast.(vid) in
        let best = ref (-1) in
        let best_size = ref (-1) in
        for j = 0 to Array.length cols - 1 do
          let b = cols.(j) in
          if b.c_size > !best_size && stamp.(b.c_node) = epoch then begin
            best := j;
            best_size := b.c_size
          end
        done;
        if !best < 0 then
          fail c scr sp i
            (Violation.Never_broadcast { vid; cond = c.vcond_name.(vid) })
        else begin
          let b = cols.(!best) in
          for j = 0 to Array.length cols - 1 do
            let b' = cols.(j) in
            if
              b'.c_size = b.c_size
              && Float.abs (b'.c_start -. b.c_start) > eps
              && stamp.(b'.c_node) = epoch
            then
              fail c scr sp i
                (Violation.Ambiguous_broadcast
                   {
                     vid;
                     cond = c.vcond_name.(vid);
                     start = b.c_start;
                     alt_start = b'.c_start;
                   })
          done;
          if b.c_start < e.c_finish -. eps then
            fail c scr sp i
              (Violation.Broadcast_before_produced
                 {
                   vid;
                   cond = c.vcond_name.(vid);
                   bcast_start = b.c_start;
                   produced = e.c_finish;
                 });
          bchosen.(vid) <- !best
        end
      end
    done;
  (* Causality, distributed knowledge, release times. *)
  for a = 0 to ne - 1 do
    let vid = exist.(a) in
    if chosen.(vid) >= 0 then begin
      let e = c.exec.(vid).(chosen.(vid)) in
      let preds = c.vpreds.(vid) in
      for pi = 0 to Array.length preds - 1 do
        let p = preds.(pi) in
        if chosen.(p) >= 0 then begin
          let pe = c.exec.(p).(chosen.(p)) in
          if e.c_start < pe.c_finish -. eps then
            fail c scr sp i
              (Violation.Causality
                 {
                   vid;
                   vertex = c.vname.(vid);
                   start = e.c_start;
                   pred = p;
                   pred_name = c.vname.(p);
                   pred_finish = pe.c_finish;
                 })
        end
      done;
      let know = c.vknow.(vid) in
      for li = 0 to Array.length know - 1 do
        let cv = know.(li) in
        (* [cv] was produced on another node, so the architecture has
           several and the condition is learned from its broadcast. *)
        let bj = bchosen.(cv) in
        if bj >= 0 && e.c_start < c.bcast.(cv).(bj).c_finish -. eps then
          fail c scr sp i
            (Violation.Distributed_knowledge
               {
                 vid;
                 vertex = c.vname.(vid);
                 start = e.c_start;
                 cond_vid = cv;
                 cond = c.vcond_name.(cv);
                 learned = c.bcast.(cv).(bj).c_finish;
               })
      done;
      let r = c.vrelease.(vid) in
      if (not (Float.is_nan r)) && e.c_start < r -. eps then
        fail c scr sp i
          (Violation.Release
             { vid; vertex = c.vname.(vid); start = e.c_start; release = r })
    end
  done;
  (* Resource exclusivity. *)
  let active = scr.s_active in
  let na = ref 0 in
  for a = 0 to ne - 1 do
    let vid = exist.(a) in
    if chosen.(vid) >= 0 then begin
      let e = c.exec.(vid).(chosen.(vid)) in
      if e.c_finish -. e.c_start > eps then begin
        active.(!na) <- vid;
        incr na
      end
    end
  done;
  for a = 0 to !na - 1 do
    let vid = active.(a) in
    let e = c.exec.(vid).(chosen.(vid)) in
    let la = e.c_lane in
    if la <> no_lane then
      for b = a + 1 to !na - 1 do
        let vid' = active.(b) in
        let e' = c.exec.(vid').(chosen.(vid')) in
        if
          e'.c_lane = la
          && e.c_start < e'.c_finish -. eps
          && e'.c_start < e.c_finish -. eps
        then
          fail c scr sp i
            (Violation.Resource_overlap
               {
                 vid;
                 vertex = c.vname.(vid);
                 other_vid = vid';
                 other = c.vname.(vid');
               })
      done
  done;
  (* Deadlines. *)
  let makespan = ref 0. in
  for a = 0 to ne - 1 do
    let vid = exist.(a) in
    if chosen.(vid) >= 0 then begin
      let f = c.exec.(vid).(chosen.(vid)).c_finish in
      if f > !makespan then makespan := f
    end
  done;
  scr.s_makespan.(0) <- !makespan;
  if !makespan > c.deadline +. eps then
    fail c scr sp i
      (Violation.Deadline_missed
         { deadline = c.deadline; completion = !makespan });
  for li = 0 to Array.length c.locals - 1 do
    let pid, pname, d, copies = c.locals.(li) in
    let completion = ref 0. in
    for ci = 0 to Array.length copies - 1 do
      let vid = copies.(ci) in
      if chosen.(vid) >= 0 then begin
        let f = c.exec.(vid).(chosen.(vid)).c_finish in
        if f > !completion then completion := f
      end
    done;
    if !completion > d +. eps then
      fail c scr sp i
        (Violation.Local_deadline_missed
           { pid; process = pname; deadline = d; completion = !completion })
  done;
  match scr.s_violations with
  | [] -> []
  | vs ->
      scr.s_violations <- [];
      scr.s_scenario <- None;
      scr.s_label <- None;
      List.rev vs

(* Replay one contiguous arena range with range-local scratch,
   collecting violations in scenario order. *)
let replay_range c sp lo hi =
  let scr = make_scratch c in
  let acc = ref [] in
  for i = lo to hi - 1 do
    Telemetry.incr c_scenarios;
    let vs = replay_one c sp i scr in
    if vs <> [] then begin
      if Events.enabled () then Telemetry.add c_violations (List.length vs);
      acc := List.rev_append vs !acc
    end
  done;
  List.rev !acc
