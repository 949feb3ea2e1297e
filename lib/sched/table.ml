module Cond = Ftes_ftcpg.Cond
module Ftcpg = Ftes_ftcpg.Ftcpg
module Problem = Ftes_ftcpg.Problem
module Graph = Ftes_app.Graph
module App = Ftes_app.App

type resource = Node of int | Bus | Local

type item = Exec of int | Bcast of int

type entry = {
  item : item;
  guard : Cond.guard;
  start : float;
  finish : float;
  resource : resource;
}

type track = { scenario : Cond.guard; makespan : float }

type t = { ftcpg : Ftcpg.t; entries : entry list; tracks : track list }

(* ------------------------------------------------------------------ *)
(* Assembly. Raw entries are grouped by slot — (item, resource, start
   rounded to 1e-6) — and the guards of one slot are collapsed by
   resolution: two guards that differ in exactly one complementary
   literal ([A&c], [A&!c]) cover exactly the scenarios of their common
   rest [A]. Anything weaker (e.g. plain intersection, or [A&c] with
   [A&d]) would let an entry leak into scenarios whose track committed
   a different time.

   Resolution is not confluent: different merge orders reach different
   (equivalent) covers, so the order below is pinned behaviour (see
   DESIGN.md, "Schedule-table assembly"): repeatedly take the first
   guard in [Cond.compare] order that has a partner, merge it with its
   least partner, drop every guard implying the merge; at a fixpoint
   drop guards implied by another one, and resume if that removed any.
   The test oracle ([test/table_oracle.ml]) is the literal transcription
   of that loop; here partners are found by hashed one-literal flips. *)
(* ------------------------------------------------------------------ *)

(* A literal as one int, [2 * cond + fault]: ascending codes order
   literals as [Cond.compare] does (condition id, then [false < true]),
   and flipping the polarity is [lxor 1]. *)
let code (l : Cond.literal) = (2 * l.Cond.cond) + Bool.to_int l.Cond.fault

(* Guards hash to the sum of their literals' hashes, so the hash of a
   one-literal flip costs O(1). *)
let mix c =
  let h = c * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

type gnode = {
  literals : Cond.guard;
  codes : int array;  (* ascending *)
  hash : int;
  bloom : int;  (* [bit] of every literal *)
  mutable alive : bool;
  mutable lonely : bool;  (* known to have no live partner *)
}

(* The subset pre-filter: one of 62 bits per literal. *)
let bit c = 1 lsl (c mod 62)

let gnode_of_codes literals codes =
  let hash = ref 0 and bloom = ref 0 in
  Array.iter
    (fun c ->
      hash := !hash + mix c;
      bloom := !bloom lor bit c)
    codes;
  { literals; codes; hash = !hash; bloom = !bloom; alive = false; lonely = false }

let gnode g = gnode_of_codes g (Array.of_list (List.map code (Cond.literals g)))

let rec compare_from a b i =
  let la = Array.length a and lb = Array.length b in
  if i = la then if i = lb then 0 else -1
  else if i = lb then 1
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

(* Lexicographic with a proper prefix first: [Cond.compare] on the
   literal lists. *)
let compare_codes a b = compare_from a b 0

(* The ascending codes [a] from [i] on are among [b] from [j] on. *)
let rec subset_from a b i j =
  i = Array.length a
  || j < Array.length b
     && ((a.(i) = b.(j) && subset_from a b (i + 1) (j + 1))
        || (a.(i) > b.(j) && subset_from a b i (j + 1)))

(* [implies sup sub]: the literals of [sub] are among those of [sup]. *)
let implies sup sub =
  sub.bloom land sup.bloom = sub.bloom
  && Array.length sub.codes <= Array.length sup.codes
  && subset_from sub.codes sup.codes 0 0

(* [b] agrees with [a] from [j] on, except that position [i] is
   flipped. *)
let rec flipped_from a i b j =
  j = Array.length a
  || (b.(j) = (if j = i then a.(j) lxor 1 else a.(j)) && flipped_from a i b (j + 1))

(* The flip index of one slot: the guards ever live, bucketed by hash.
   A merge retires at least two guards, so a slot adds fewer guards
   than it starts with, and two buckets per starting guard hold all of
   them at a load of at most one. *)
type index = { buckets : gnode list array; mask : int }

let index_for n =
  let size = ref 1 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  { buckets = Array.make !size []; mask = !size - 1 }

let add index n =
  n.alive <- true;
  let b = n.hash land index.mask in
  index.buckets.(b) <- n :: index.buckets.(b)

(* The hash of [n] with literal [i] flipped. *)
let flip_hash n i =
  let c = n.codes.(i) in
  n.hash - mix c + mix (c lxor 1)

let is_flip n i q =
  q.alive
  && Array.length q.codes = Array.length n.codes
  && flipped_from n.codes i q.codes 0

let rec exists_flip n i = function
  | [] -> false
  | q :: rest -> is_flip n i q || exists_flip n i rest

(* Some live guard is [n] with literal [i] flipped. *)
let has_partner index n i =
  exists_flip n i index.buckets.(flip_hash n i land index.mask)

(* Position of the least partner of [n], from [i] down; -1 if none.
   Scanning in order, the first guard with a partner is the least such
   guard, so every partner sorts after it and flips a no-fault literal
   of it to a fault; of two such flips, the one at the later position
   keeps the smaller code longer and sorts first. *)
let rec least_partner index n i =
  if i < 0 then -1
  else if has_partner index n i then i
  else least_partner index n (i - 1)

(* The first live guard with a partner, and its least partner's
   position. Guards probed without a hit are flagged lonely and skipped
   from then on: removing guards never gives one a partner, and
   [wake] clears the flag of every guard a merge gives one. *)
let rec first_mergeable index = function
  | [] -> None
  | n :: rest ->
      if n.lonely then first_mergeable index rest
      else
        let i = least_partner index n (Array.length n.codes - 1) in
        if i >= 0 then Some (n, i)
        else begin
          n.lonely <- true;
          first_mergeable index rest
        end

let rec wake_flips n i = function
  | [] -> ()
  | q :: rest ->
      if is_flip n i q then q.lonely <- false;
      wake_flips n i rest

(* The new guard [n] is a partner of exactly its live one-literal
   flips. *)
let wake index n =
  for i = 0 to Array.length n.codes - 1 do
    wake_flips n i index.buckets.(flip_hash n i land index.mask)
  done

(* The guards one slot keeps, ascending. *)
let collapse = function
  | [ g ] -> [ g ]
  | guards ->
      let by_codes a b = compare_codes a.codes b.codes in
      let live = ref (List.sort_uniq by_codes (List.map gnode guards)) in
      (* Retired guards stay in the index and are skipped. *)
      let index = index_for (List.length !live) in
      List.iter (add index) !live;
      let rec step () =
        match first_mergeable index !live with
        | Some (g, i) ->
            (* [Cond.remove] shares the guard's tail: merged guards are
               what the table keeps. *)
            let merged =
              gnode_of_codes
                (Cond.remove g.literals (g.codes.(i) lsr 1))
                (Array.init
                   (Array.length g.codes - 1)
                   (fun j -> g.codes.(if j < i then j else j + 1)))
            in
            let implied, kept = List.partition (fun h -> implies h merged) !live in
            List.iter (fun h -> h.alive <- false) implied;
            add index merged;
            wake index merged;
            let rec insert = function
              | h :: rest when by_codes h merged < 0 -> h :: insert rest
              | l -> merged :: l
            in
            live := insert kept;
            step ()
        | None ->
            let gs = !live in
            let subsumed, kept =
              List.partition (fun h -> List.exists (fun h' -> h' != h && implies h h') gs) gs
            in
            if subsumed <> [] then begin
              List.iter (fun h -> h.alive <- false) subsumed;
              live := kept;
              step ()
            end
      in
      step ();
      List.map (fun n -> n.literals) !live

(* A slot: item and resource as ints, start in 1e-6 ticks. *)
type slot = { s_item : int; s_res : int; s_tick : float }

let slot e =
  {
    s_item = (match e.item with Exec v -> 2 * v | Bcast v -> (2 * v) + 1);
    s_res = (match e.resource with Bus -> 0 | Local -> 1 | Node n -> n + 2);
    s_tick = Float.round (e.start *. 1e6);
  }

module Slots = Hashtbl.Make (struct
  type t = slot

  let equal a b = a.s_item = b.s_item && a.s_res = b.s_res && Float.equal a.s_tick b.s_tick
  let hash a = Hashtbl.hash (a.s_item, a.s_res, a.s_tick)
end)

type group = { mutable rep : entry; mutable guards : Cond.guard list }

(* The slot groups of [entries], last-opened first. *)
let group entries =
  let groups = Slots.create 256 in
  let order = ref [] in
  List.iter
    (fun e ->
      let key = slot e in
      match Slots.find_opt groups key with
      | Some grp ->
          grp.rep <- e;
          grp.guards <- e.guard :: grp.guards
      | None ->
          let grp = { rep = e; guards = [ e.guard ] } in
          Slots.add groups key grp;
          order := grp :: !order)
    entries;
  !order

(* One entry per kept guard; the slot's last raw occurrence supplies
   [start] and [finish]. *)
let collapse_group grp =
  List.map (fun guard -> { grp.rep with guard }) (collapse grp.guards)

let compare_item a b =
  match (a, b) with
  | Exec x, Exec y | Bcast x, Bcast y -> Int.compare x y
  | Exec _, Bcast _ -> -1
  | Bcast _, Exec _ -> 1

(* Slots are independent, so their collapses fan out; [Par.map] merges
   them in group order, which keeps the table the same for every
   [jobs]. *)
let assemble ~jobs ~ftcpg ~entries ~tracks =
  let entries =
    List.sort
      (fun a b ->
        let c = Float.compare a.start b.start in
        if c <> 0 then c else compare_item a.item b.item)
      (List.concat (Ftes_util.Par.map ~jobs collapse_group (group entries)))
  in
  { ftcpg; entries; tracks }

let make ~ftcpg ~entries ~tracks = assemble ~jobs:1 ~ftcpg ~entries ~tracks

let schedule_length t =
  List.fold_left (fun acc tr -> max acc tr.makespan) 0. t.tracks

let no_fault_length t =
  match
    List.find_opt (fun tr -> Cond.fault_count tr.scenario = 0) t.tracks
  with
  | Some tr -> tr.makespan
  | None -> schedule_length t

let entries_on t resource = List.filter (fun e -> e.resource = resource) t.entries

let starts_of_vertex t vid =
  List.sort_uniq compare
    (List.filter_map
       (fun e -> if e.item = Exec vid then Some e.start else None)
       t.entries)

let completion_of_process t ~scenario pid =
  let copies = Ftcpg.proc_copies t.ftcpg ~pid in
  List.fold_left
    (fun acc e ->
      match e.item with
      | Exec vid
        when List.mem vid copies
             && Ftcpg.exists_in t.ftcpg ~scenario vid
             && Cond.implies scenario e.guard ->
          max acc e.finish
      | Exec _ | Bcast _ -> acc)
    0. t.entries

let violations t =
  let problem = Ftcpg.problem t.ftcpg in
  let app = problem.Problem.app in
  let deadline = app.App.deadline in
  let g = app.App.graph in
  let global =
    List.filter_map
      (fun tr ->
        if tr.makespan > deadline +. 1e-9 then
          Some
            (Printf.sprintf "scenario %s: makespan %g exceeds deadline %g"
               (Cond.to_string ~name:(Ftcpg.cond_name t.ftcpg) tr.scenario)
               tr.makespan deadline)
        else None)
      t.tracks
  in
  let local =
    List.concat_map
      (fun (p : Graph.process) ->
        match p.Graph.local_deadline with
        | None -> []
        | Some d ->
            List.filter_map
              (fun tr ->
                let c = completion_of_process t ~scenario:tr.scenario p.Graph.pid in
                if c > d +. 1e-9 then
                  Some
                    (Printf.sprintf
                       "scenario %s: %s completes at %g, local deadline %g"
                       (Cond.to_string ~name:(Ftcpg.cond_name t.ftcpg)
                          tr.scenario)
                       p.Graph.pname c d)
                else None)
              t.tracks)
      (Array.to_list (Graph.processes g))
  in
  global @ local

let meets_deadline t = violations t = []

let entry_count t = List.length t.entries

let item_name t = function
  | Exec vid -> (Ftcpg.vertex t.ftcpg vid).Ftcpg.name
  | Bcast vid -> Ftcpg.cond_name t.ftcpg vid

let resource_label t = function
  | Node nid ->
      (Ftes_arch.Arch.node (Ftcpg.problem t.ftcpg).Problem.arch nid)
        .Ftes_arch.Arch.nname
  | Bus -> "bus"
  | Local -> "local"

let pp ppf t =
  let guard_str g = Cond.to_string ~name:(Ftcpg.cond_name t.ftcpg) g in
  let resources =
    let problem = Ftcpg.problem t.ftcpg in
    List.map (fun nid -> Node nid)
      (Ftes_arch.Arch.node_ids problem.Problem.arch)
    @ [ Bus; Local ]
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      match entries_on t r with
      | [] -> ()
      | es ->
          Format.fprintf ppf "-- %s --@," (resource_label t r);
          List.iter
            (fun e ->
              Format.fprintf ppf "  %7.1f-%-7.1f %-10s if %s@," e.start
                e.finish (item_name t e.item) (guard_str e.guard))
            es)
    resources;
  Format.fprintf ppf "worst-case length %g, no-fault length %g, %d scenarios@]"
    (schedule_length t) (no_fault_length t) (List.length t.tracks)

(* Matrix layout close to the paper's Fig. 6: one column per distinct
   guard, one row per application-level object. *)
let pp_matrix ?(max_columns = 16) ppf t =
  let guard_str g = Cond.to_string ~name:(Ftcpg.cond_name t.ftcpg) g in
  let problem = Ftcpg.problem t.ftcpg in
  let g = (Ftcpg.problem t.ftcpg).Problem.app.App.graph in
  let guards =
    List.sort_uniq Cond.compare (List.map (fun e -> e.guard) t.entries)
  in
  if List.length guards > max_columns then
    Format.fprintf ppf
      "(%d distinct guards; matrix layout suppressed, see list layout)@,"
      (List.length guards)
  else begin
    let row_key e =
      match e.item with
      | Exec vid -> (
          match (Ftcpg.vertex t.ftcpg vid).Ftcpg.kind with
          | Ftcpg.Proc_copy { pid; _ } | Ftcpg.Sync_proc pid ->
              (0, pid, (Graph.process g pid).Graph.pname)
          | Ftcpg.Msg_inst { mid; _ } | Ftcpg.Sync_msg mid ->
              (1, mid, (Graph.message g mid).Graph.mname))
      | Bcast vid -> (2, vid, Ftcpg.cond_name t.ftcpg vid)
    in
    let rows =
      List.sort_uniq compare (List.map row_key t.entries)
    in
    let cell row guard =
      let cs =
        List.filter_map
          (fun e ->
            if row_key e = row && Cond.equal e.guard guard then
              Some
                (Printf.sprintf "%g(%s)" e.start
                   (match e.item with
                   | Exec vid -> (Ftcpg.vertex t.ftcpg vid).Ftcpg.name
                   | Bcast _ -> "bc"))
            else None)
          t.entries
      in
      String.concat " " cs
    in
    let header = "" :: List.map guard_str guards in
    let body =
      List.map
        (fun ((_, _, name) as row) -> name :: List.map (cell row) guards)
        rows
    in
    Format.pp_print_string ppf (Ftes_util.Chart.render_table ~header body)
  end;
  ignore problem
