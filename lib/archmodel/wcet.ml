type t = {
  nodes : int;
  table : float option array array; (* [pid].(nid) *)
}

let create ~procs ~nodes =
  if procs < 0 || nodes <= 0 then invalid_arg "Wcet.create: bad dimensions";
  { nodes; table = Array.make_matrix procs nodes None }

let proc_count t = Array.length t.table

let node_count t = t.nodes

let check t ~pid ~nid =
  if pid < 0 || pid >= proc_count t then invalid_arg "Wcet: bad process id";
  if nid < 0 || nid >= node_count t then invalid_arg "Wcet: bad node id"

let set t ~pid ~nid c =
  check t ~pid ~nid;
  if c < 0. then invalid_arg "Wcet.set: negative WCET";
  t.table.(pid).(nid) <- Some c

let forbid t ~pid ~nid =
  check t ~pid ~nid;
  t.table.(pid).(nid) <- None

let get t ~pid ~nid =
  check t ~pid ~nid;
  t.table.(pid).(nid)

let get_exn t ~pid ~nid =
  match get t ~pid ~nid with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Wcet.get_exn: process %d cannot run on node %d" pid
           nid)

let allowed t ~pid ~nid = get t ~pid ~nid <> None

let allowed_nodes t ~pid =
  List.filter_map
    (fun nid -> if allowed t ~pid ~nid then Some nid else None)
    (List.init (node_count t) (fun i -> i))

let fastest_node t ~pid =
  List.fold_left
    (fun best nid ->
      match (best, get t ~pid ~nid) with
      | _, None -> best
      | None, Some c -> Some (nid, c)
      | Some (_, bc), Some c -> if c < bc then Some (nid, c) else best)
    None
    (List.init (node_count t) (fun i -> i))

let average_wcet t ~pid =
  let cs =
    List.filter_map (fun nid -> get t ~pid ~nid)
      (List.init (node_count t) (fun i -> i))
  in
  Ftes_util.Stats.mean cs

let validate t =
  for pid = 0 to proc_count t - 1 do
    if allowed_nodes t ~pid = [] then
      invalid_arg
        (Printf.sprintf "Wcet.validate: process %d has no allowed node" pid)
  done

let map f t =
  { t with table = Array.map (Array.map (Option.map f)) t.table }

let copy t = { t with table = Array.map Array.copy t.table }

let pp ppf t =
  Format.fprintf ppf "@[<v>WCET table (%d procs x %d nodes)@," (proc_count t)
    (node_count t);
  Array.iteri
    (fun pid row ->
      Format.fprintf ppf "  P%d:" (pid + 1);
      Array.iter
        (fun c ->
          match c with
          | Some c -> Format.fprintf ppf " %6g" c
          | None -> Format.fprintf ppf "      X")
        row;
      Format.fprintf ppf "@,")
    t.table;
  Format.fprintf ppf "@]"
