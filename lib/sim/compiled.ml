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
  c_node : int;  (* trie node its guard ends at (its guard id); -1 none *)
  c_size : int;  (* [Cond.size] of the column guard: specificity *)
  c_start : float;
  c_finish : float;
  c_lane : int;  (* exclusivity lane; [no_lane] for local items *)
}

(* Every guard of the table (vertex existence guards and activation
   and broadcast column guards) as one trie over its literals, which
   are sorted by condition id and hence by field index. Equal guards
   end at the same node, so a node id is a guard id, which each column
   and vertex records ([c_node], [vnode]) in place of a packed guard. Nodes are laid out
   in pre-order: node [n] tests one literal (the 2-bit field under
   [tmask.(n)] in word [tword.(n)] equals [tbits.(n)]) and its subtree
   spans [n, tskip.(n)). Node 0 is the root: the true guard, whose zero
   mask every row matches. A guard with a literal outside the universe
   is never implied and is listed at no node.

   What ends at node [n] is listed as the codes
   [tcodes.(tstart.(n)) .. tcodes.(tstart.(n + 1) - 1)], each
   [(vid lsl shift) lor off]: [off = 0] for a vertex whose existence
   guard ends there, [1 + j] for its activation column [j] and
   [1 + Array.length exec.(vid) + j] for its broadcast column [j]. So
   a vertex's ascending offsets give its activation and then its
   broadcast columns, each in table order. *)
type index = {
  tword : int array;
  tmask : int array;
  tbits : int array;
  tskip : int array;
  tstart : int array;
  tcodes : int array;
  shift : int;
}

type t = {
  cftcpg : Ftcpg.t;
  nverts : int;
  nnodes : int;
  deadline : float;
  exec : centry array array;  (* vid -> activation columns, table order *)
  bcast : centry array array;  (* vid -> broadcast columns, table order *)
  vnode : int array;  (* vid -> trie node of its existence guard; -1 none *)
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
   ending there) and its children as a sibling chain. The four fields
   of a node sit side by side in blocks of [block] nodes, added as the
   trie grows, so no node is ever copied. No cheap bound on the node
   count holds and is tight: on generated k=4 tables the guards'
   literals sum to about 9x the nodes, because guards share long
   prefixes. *)
let block_bits = 10
let block = 1 lsl block_bits

type builder = {
  field_of : int array;  (* condition id -> field index, or -1 *)
  mutable blocks : int array array;
  mutable size : int;
}

let f_lit = 0
let f_depth = 1
let f_kid = 2
let f_sib = 3

let get b k f = b.blocks.(k lsr block_bits).((4 * (k land (block - 1))) + f)
let set b k f x = b.blocks.(k lsr block_bits).((4 * (k land (block - 1))) + f) <- x

(* A fresh node [k] (the next one) with the given literal and depth and
   no children. *)
let push b lit depth =
  let k = b.size in
  let blk = k lsr block_bits in
  if k land (block - 1) = 0 then begin
    if blk = Array.length b.blocks then begin
      let dir = Array.make (2 * blk) [||] in
      Array.blit b.blocks 0 dir 0 blk;
      b.blocks <- dir
    end;
    b.blocks.(blk) <- Array.make (4 * block) 0
  end;
  set b k f_lit lit;
  set b k f_depth depth;
  set b k f_kid (-1);
  set b k f_sib (-1);
  b.size <- k + 1;
  k

let builder u =
  let top = ref 0 in
  for idx = 0 to Condvec.size u - 1 do
    top := max !top (Condvec.cond_of_index u idx + 1)
  done;
  let field_of = Array.make !top (-1) in
  for idx = 0 to Condvec.size u - 1 do
    field_of.(Condvec.cond_of_index u idx) <- idx
  done;
  let b = { field_of; blocks = Array.make 8 [||]; size = 0 } in
  ignore (push b (-1) 0);
  b

let child b parent lit =
  let k = ref (get b parent f_kid) in
  let found = ref false in
  while (not !found) && !k >= 0 do
    let blk = b.blocks.(!k lsr block_bits) and at = 4 * (!k land (block - 1)) in
    if blk.(at + f_lit) = lit then found := true else k := blk.(at + f_sib)
  done;
  if !found then !k
  else begin
    let k = push b lit (get b parent f_depth + 1) in
    set b k f_sib (get b parent f_kid);
    set b parent f_kid k;
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

(* Lay the builder's nodes out in pre-order: the trie's tests and skip
   index, and the map from builder nodes to trie nodes. *)
let layout b =
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
      let lit = get b k f_lit in
      let idx = lit / 2 in
      let shift = 2 * (idx mod Condvec.fields_per_word) in
      tword.(id) <- idx / Condvec.fields_per_word;
      tmask.(id) <- 3 lsl shift;
      tbits.(id) <- (1 + (2 * (lit land 1))) lsl shift
    end;
    let kid = ref (get b k f_kid) in
    while !kid >= 0 do
      visit !kid;
      kid := get b !kid f_sib
    done;
    tskip.(id) <- !next
  in
  visit 0;
  (tword, tmask, tbits, tskip, pre)

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
  (* Two passes over the entry list. The first puts every guard into
     the trie and counts the columns of each item; the second fills
     each item's column array in table order, which the selection and
     ambiguity checks below depend on, and lists each column's code at
     the trie node its guard ends at. *)
  let b = builder u in
  let entries = table.Table.entries in
  let enode = Array.make (List.length entries) 0 in
  let nexec = Array.make n 0 in
  let nbcast = Array.make n 0 in
  List.iteri
    (fun x (e : Table.entry) ->
      enode.(x) <- insert b 0 (Cond.literals e.Table.guard);
      match e.Table.item with
      | Table.Exec vid -> nexec.(vid) <- nexec.(vid) + 1
      | Table.Bcast vid -> nbcast.(vid) <- nbcast.(vid) + 1)
    entries;
  let vnode =
    Array.init n (fun vid -> insert b 0 (Cond.literals (Ftcpg.vertex ftcpg vid).Ftcpg.guard))
  in
  let tword, tmask, tbits, tskip, pre = layout b in
  let nn = b.size in
  (* Codes per trie node: count them, turn the counts into the end of
     each node's run, then list each code by moving its node's end
     down; once every code is listed, [tstart.(id)] is the start of the
     run of node [id]. A run's order does not matter: the walk sorts
     each vertex's columns. *)
  let tstart = Array.make (nn + 1) 0 in
  let count k = if k >= 0 then tstart.(pre.(k)) <- tstart.(pre.(k)) + 1 in
  Array.iter count enode;
  Array.iter count vnode;
  for id = 1 to nn do
    tstart.(id) <- tstart.(id) + tstart.(id - 1)
  done;
  let tcodes = Array.make tstart.(nn) 0 in
  let list k code =
    if k >= 0 then begin
      let id = pre.(k) in
      tstart.(id) <- tstart.(id) - 1;
      tcodes.(tstart.(id)) <- code
    end
  in
  let shift = ref 0 in
  for vid = 0 to n - 1 do
    while 1 + nexec.(vid) + nbcast.(vid) > 1 lsl !shift do
      incr shift
    done
  done;
  let shift = !shift in
  Array.iteri (fun vid k -> list k (vid lsl shift)) vnode;
  let node k = if k < 0 then -1 else pre.(k) in
  let column vid k (e : Table.entry) =
    {
      c_node = node k;
      c_size = (if k < 0 then Cond.size e.Table.guard else get b k f_depth);
      c_start = e.Table.start;
      c_finish = e.Table.finish;
      c_lane = lane_of vid e;
    }
  in
  let placeholder =
    { c_node = -1; c_size = 0; c_start = 0.; c_finish = 0.; c_lane = no_lane }
  in
  let exec = Array.map (fun m -> Array.make m placeholder) nexec in
  let bcast = Array.map (fun m -> Array.make m placeholder) nbcast in
  (* The counts become fill cursors. *)
  Array.fill nexec 0 n 0;
  Array.fill nbcast 0 n 0;
  List.iteri
    (fun x (e : Table.entry) ->
      let k = enode.(x) in
      match e.Table.item with
      | Table.Exec vid ->
          let j = nexec.(vid) in
          exec.(vid).(j) <- column vid k e;
          nexec.(vid) <- j + 1;
          list k ((vid lsl shift) + 1 + j)
      | Table.Bcast vid ->
          let j = nbcast.(vid) in
          bcast.(vid).(j) <- column vid k e;
          nbcast.(vid) <- j + 1;
          list k ((vid lsl shift) + 1 + Array.length exec.(vid) + j))
    entries;
  let index = { tword; tmask; tbits; tskip; tstart; tcodes; shift } in
  let vconditional = Array.make n false in
  let vname = Array.make n "" in
  let vcond_name = Array.make n "" in
  let vpreds = Array.make n [||] in
  let vknow = Array.make n [||] in
  let vrelease = Array.make n Float.nan in
  for vid = 0 to n - 1 do
    let v = Ftcpg.vertex ftcpg vid in
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
    exec;
    bcast;
    vnode = Array.map node vnode;
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
   replay it holds the columns that replay chose. [s_exist] lists the
   vertices of the last replay, in gather order (ascending only after a
   replay that found a violation): the only entries of
   [s_chosen]/[s_bchosen] it can have set, and the only ones the next
   replay resets. A replay leaves [s_head] all -1, as it found it, and
   refills the other arrays from the start, so nothing else carries
   over between replays, whatever rows or spaces the scratch saw
   before. *)
type scratch = {
  s_chosen : int array;  (* vid -> column index in exec.(vid); -1 none *)
  s_bchosen : int array;  (* vid -> column index in bcast.(vid); -1 none *)
  s_codes : int array;  (* the column codes the walk gathers *)
  s_link : int array;
      (* s_codes index -> the previous gathered code of the same vertex;
         -1 none *)
  s_head : int array;  (* vid -> its last gathered code; -1 none *)
  s_exist : int array;  (* vids existing in the last replay *)
  mutable s_nexist : int;
  s_cols : int array;
      (* the applicable column indexes of each existing vertex: vertex
         vid has its activation columns at s_xfrom.(vid) ..
         s_bfrom.(vid) - 1 and its broadcast columns at s_bfrom.(vid) ..
         s_bto.(vid) - 1, ascending only after a replay that found a
         violation *)
  s_xfrom : int array;
  s_bfrom : int array;
  s_bto : int array;
  s_active : int array;  (* vids with nonzero-duration activations *)
  (* The exclusivity sweep: the laned active items in gather order
     (bucket, start, finish), then per bucket sorted by start; bucket
     [l] holds lane [l - 1] and spans [s_lfrom.(l) .. s_lto.(l) - 1]. *)
  s_ilane : int array;
  s_istart : float array;
  s_ifinish : float array;
  s_sstart : float array;
  s_sfinish : float array;
  s_lfrom : int array;
  s_lto : int array;
  s_makespan : float array;  (* one cell, unboxed: latest chosen finish *)
  (* Built on the first violation of a replay only: *)
  mutable s_scenario : Cond.guard option;
  mutable s_label : string option;
  mutable s_violations : Violation.t list;  (* newest first *)
}

let make_scratch c =
  let n = max 1 c.nverts in
  (* A walk enters a node at most once, so it gathers each code at most
     once. *)
  let m = max 1 (Array.length c.index.tcodes) in
  (* Lanes run from -1 (a non-TDMA bus) to [2 * nnodes - 1]. *)
  let nl = (2 * c.nnodes) + 1 in
  {
    s_chosen = Array.make c.nverts (-1);
    s_bchosen = Array.make c.nverts (-1);
    s_codes = Array.make m 0;
    s_link = Array.make m 0;
    s_head = Array.make n (-1);
    s_exist = Array.make n 0;
    s_nexist = 0;
    s_cols = Array.make m 0;
    s_xfrom = Array.make n 0;
    s_bfrom = Array.make n 0;
    s_bto = Array.make n 0;
    s_active = Array.make n 0;
    s_ilane = Array.make n 0;
    s_istart = Array.make n 0.;
    s_ifinish = Array.make n 0.;
    s_sstart = Array.make n 0.;
    s_sfinish = Array.make n 0.;
    s_lfrom = Array.make nl 0;
    s_lto = Array.make nl 0;
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

(* Shell sort of [a.(lo .. hi-1)] in place. *)
let sort_range (a : int array) lo hi =
  let gap = ref 1 in
  while (3 * !gap) + 1 < hi - lo do
    gap := (3 * !gap) + 1
  done;
  while !gap > 0 do
    let h = !gap in
    for x = lo + h to hi - 1 do
      let v = a.(x) in
      let y = ref x in
      while !y - h >= lo && a.(!y - h) > v do
        a.(!y) <- a.(!y - h);
        y := !y - h
      done;
      a.(!y) <- v
    done;
    gap := h / 3
  done

(* Reset the previous replay's choices, then walk the trie over row
   [i], gathering the codes listed at every node whose literal the row
   satisfies: the existence marks of the vertices that exist and the
   columns that apply, each column chained to the previous one of its
   vertex. Each existing vertex's chain gives its applicable activation
   and broadcast column indexes, which go to its [s_xfrom]/[s_bfrom]
   and [s_bfrom]/[s_bto] spans of [s_cols]. Neither the vertices nor
   the spans are sorted: selection needs no order, and only a scenario
   with a violation is put in order ([sort_scenario]). Columns of
   vertices that do not exist are left out. *)
let walk c sp i scr =
  let ix = c.index in
  let chosen = scr.s_chosen and bchosen = scr.s_bchosen in
  let exist = scr.s_exist in
  for a = 0 to scr.s_nexist - 1 do
    let vid = exist.(a) in
    chosen.(vid) <- -1;
    bchosen.(vid) <- -1
  done;
  let shift = ix.shift in
  let low = (1 lsl shift) - 1 in
  let codes = scr.s_codes and link = scr.s_link and head = scr.s_head in
  let data = sp.Condvec.data in
  let base = i * sp.Condvec.words in
  let nn = Array.length ix.tskip in
  let ne = ref 0 in
  let nb = ref 0 in
  let nd = ref 0 in
  while !nd < nn do
    let n = !nd in
    if data.(base + ix.tword.(n)) land ix.tmask.(n) = ix.tbits.(n) then begin
      for x = ix.tstart.(n) to ix.tstart.(n + 1) - 1 do
        let code = ix.tcodes.(x) in
        let vid = code lsr shift in
        if code land low = 0 then begin
          exist.(!ne) <- vid;
          incr ne
        end
        else begin
          codes.(!nb) <- code;
          link.(!nb) <- head.(vid);
          head.(vid) <- !nb;
          incr nb
        end
      done;
      nd := n + 1
    end
    else nd := ix.tskip.(n)
  done;
  let cols = scr.s_cols in
  let xfrom = scr.s_xfrom and bfrom = scr.s_bfrom and bto = scr.s_bto in
  let w = ref 0 in
  for a = 0 to !ne - 1 do
    let vid = exist.(a) in
    let from = !w in
    let p = ref head.(vid) in
    while !p >= 0 do
      cols.(!w) <- codes.(!p) land low;
      incr w;
      p := link.(!p)
    done;
    (* Offsets 1 .. |exec| are activation columns, the rest broadcast:
       partition them, activation first, and turn offsets into column
       indexes. *)
    let nx = Array.length c.exec.(vid) in
    let x = ref from and y = ref (!w - 1) in
    while !x <= !y do
      let off = cols.(!x) in
      if off <= nx then begin
        cols.(!x) <- off - 1;
        incr x
      end
      else begin
        cols.(!x) <- cols.(!y);
        cols.(!y) <- off - 1 - nx;
        decr y
      end
    done;
    xfrom.(vid) <- from;
    bfrom.(vid) <- !x;
    bto.(vid) <- !w
  done;
  for p = 0 to !nb - 1 do
    head.(codes.(p) lsr shift) <- -1
  done;
  scr.s_nexist <- !ne

(* The order violations are emitted in: existing vertices ascending,
   each vertex's columns in table order. *)
let sort_scenario scr =
  let exist = scr.s_exist in
  sort_range exist 0 scr.s_nexist;
  for a = 0 to scr.s_nexist - 1 do
    let vid = exist.(a) in
    sort_range scr.s_cols scr.s_xfrom.(vid) scr.s_bfrom.(vid);
    sort_range scr.s_cols scr.s_bfrom.(vid) scr.s_bto.(vid)
  done

(* Whether two of the [ni] laned active items staged in [s_ilane]/
   [s_istart]/[s_ifinish] may overlap. The items are bucketed by lane
   and sorted by start within each bucket; an item that starts earlier
   than the latest finish before it in its bucket, minus [eps], flags
   the scenario. Of an overlapping pair, the later one in its bucket
   satisfies that test, so no overlap goes unflagged; and since every
   active item lasts longer than [eps], a flagged item does overlap the
   item with the latest finish before it, so a clean scenario is not
   flagged. *)
let lanes_overlap scr ni =
  let lfrom = scr.s_lfrom and lto = scr.s_lto in
  let nl = Array.length lfrom in
  Array.fill lto 0 nl 0;
  let ilane = scr.s_ilane in
  for x = 0 to ni - 1 do
    lto.(ilane.(x)) <- lto.(ilane.(x)) + 1
  done;
  (* Counts to spans; [lto] becomes each bucket's fill cursor. *)
  let sum = ref 0 in
  for l = 0 to nl - 1 do
    let count = lto.(l) in
    lfrom.(l) <- !sum;
    lto.(l) <- !sum;
    sum := !sum + count
  done;
  let istart = scr.s_istart and ifinish = scr.s_ifinish in
  let sstart = scr.s_sstart and sfinish = scr.s_sfinish in
  for x = 0 to ni - 1 do
    let l = ilane.(x) in
    let s = istart.(x) in
    let p = ref lto.(l) in
    while !p > lfrom.(l) && sstart.(!p - 1) > s do
      sstart.(!p) <- sstart.(!p - 1);
      sfinish.(!p) <- sfinish.(!p - 1);
      decr p
    done;
    sstart.(!p) <- s;
    sfinish.(!p) <- ifinish.(x);
    lto.(l) <- lto.(l) + 1
  done;
  let flagged = ref false in
  for l = 0 to nl - 1 do
    let latest = ref Float.neg_infinity in
    for p = lfrom.(l) to lto.(l) - 1 do
      if sstart.(p) < !latest -. eps then flagged := true;
      if sfinish.(p) > !latest then latest := sfinish.(p)
    done
  done;
  !flagged

(* Every check of one scenario, over the vertices and column spans
   [walk] left; violations go to the scratch in the order of
   [s_exist] and of the spans. Selection takes the most specific
   applicable column and, among equally specific ones, the lowest
   column index, the first in table order: so the choices do not
   depend on that order, only the emission order does. *)
let check c sp i scr =
  let exist = scr.s_exist and ne = scr.s_nexist in
  let cols = scr.s_cols in
  let xfrom = scr.s_xfrom and bfrom = scr.s_bfrom and bto = scr.s_bto in
  (* Activation selection: most specific applicable column; first one
     in table order wins ties, any equally specific column with a
     different time is an ambiguity. *)
  let chosen = scr.s_chosen in
  for a = 0 to ne - 1 do
    let vid = exist.(a) in
    let ecols = c.exec.(vid) in
    let best = ref (-1) in
    let best_size = ref (-1) in
    for x = xfrom.(vid) to bfrom.(vid) - 1 do
      let j = cols.(x) in
      let e = ecols.(j) in
      if e.c_size > !best_size || (e.c_size = !best_size && j < !best) then begin
        best := j;
        best_size := e.c_size
      end
    done;
    if !best < 0 then
      fail c scr sp i (Violation.Missing_activation { vid; vertex = c.vname.(vid) })
    else begin
      let e = ecols.(!best) in
      for x = xfrom.(vid) to bfrom.(vid) - 1 do
        let e' = ecols.(cols.(x)) in
        if e'.c_size = e.c_size && Float.abs (e'.c_start -. e.c_start) > eps then
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
        let bcols = c.bcast.(vid) in
        let best = ref (-1) in
        let best_size = ref (-1) in
        for x = bfrom.(vid) to bto.(vid) - 1 do
          let j = cols.(x) in
          let b = bcols.(j) in
          if b.c_size > !best_size || (b.c_size = !best_size && j < !best) then begin
            best := j;
            best_size := b.c_size
          end
        done;
        if !best < 0 then
          fail c scr sp i
            (Violation.Never_broadcast { vid; cond = c.vcond_name.(vid) })
        else begin
          let b = bcols.(!best) in
          for x = bfrom.(vid) to bto.(vid) - 1 do
            let b' = bcols.(cols.(x)) in
            if b'.c_size = b.c_size && Float.abs (b'.c_start -. b.c_start) > eps then
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
  (* Resource exclusivity: the active items go to the lane sweep, and
     only a flagged scenario runs the pair loop, which emits each
     overlap in the reference simulator's order. *)
  let active = scr.s_active in
  let na = ref 0 in
  let ni = ref 0 in
  for a = 0 to ne - 1 do
    let vid = exist.(a) in
    if chosen.(vid) >= 0 then begin
      let e = c.exec.(vid).(chosen.(vid)) in
      if e.c_finish -. e.c_start > eps then begin
        active.(!na) <- vid;
        incr na;
        if e.c_lane <> no_lane then begin
          scr.s_ilane.(!ni) <- e.c_lane + 1;
          scr.s_istart.(!ni) <- e.c_start;
          scr.s_ifinish.(!ni) <- e.c_finish;
          incr ni
        end
      end
    end
  done;
  if lanes_overlap scr !ni then
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
  done

(* A clean scenario is checked once, in gather order. A scenario with
   a violation is put in order and checked again, so that its
   violations come out in [Sim_oracle.run]'s order. *)
let replay_one c sp i scr =
  walk c sp i scr;
  check c sp i scr;
  match scr.s_violations with
  | [] -> []
  | _ ->
      scr.s_violations <- [];
      sort_scenario scr;
      check c sp i scr;
      let vs = List.rev scr.s_violations in
      scr.s_violations <- [];
      scr.s_scenario <- None;
      scr.s_label <- None;
      vs

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
