type t = { assign : int array array }

let of_array a = { assign = Array.map Array.copy a }

let make bindings =
  let n = List.length bindings in
  let assign = Array.make n [||] in
  List.iter
    (fun (pid, nodes) ->
      if pid < 0 || pid >= n then
        invalid_arg "Mapping.make: process ids must be dense 0..n-1";
      if assign.(pid) <> [||] then invalid_arg "Mapping.make: duplicate process";
      if nodes = [] then invalid_arg "Mapping.make: process with no copies";
      assign.(pid) <- Array.of_list nodes)
    bindings;
  Array.iteri
    (fun pid a ->
      if a = [||] then
        invalid_arg (Printf.sprintf "Mapping.make: process %d missing" pid))
    assign;
  { assign }

let proc_count t = Array.length t.assign

let check_pid t pid =
  if pid < 0 || pid >= proc_count t then invalid_arg "Mapping: bad process id"

let copy_count t ~pid =
  check_pid t pid;
  Array.length t.assign.(pid)

let node_of t ~pid ~copy =
  check_pid t pid;
  if copy < 0 || copy >= Array.length t.assign.(pid) then
    invalid_arg "Mapping.node_of: bad copy index";
  t.assign.(pid).(copy)

let copies t ~pid =
  check_pid t pid;
  Array.to_list t.assign.(pid)

let remap t ~pid ~copy ~nid =
  check_pid t pid;
  if copy < 0 || copy >= Array.length t.assign.(pid) then
    invalid_arg "Mapping.remap: bad copy index";
  (* Rows are never written after construction, so the unchanged ones
     are shared with [t]. *)
  let assign = Array.copy t.assign in
  let row = Array.copy t.assign.(pid) in
  row.(copy) <- nid;
  assign.(pid) <- row;
  { assign }

let validate t ~wcet ~policies =
  if Array.length policies <> proc_count t then
    invalid_arg "Mapping.validate: policy count mismatch";
  Array.iteri
    (fun pid nodes ->
      let expected = Ftes_app.Policy.replica_count policies.(pid) in
      if Array.length nodes <> expected then
        invalid_arg
          (Printf.sprintf
             "Mapping.validate: process %d has %d mapped copies, policy wants \
              %d"
             pid (Array.length nodes) expected);
      Array.iter
        (fun nid ->
          if not (Ftes_arch.Wcet.allowed wcet ~pid ~nid) then
            invalid_arg
              (Printf.sprintf
                 "Mapping.validate: process %d mapped to forbidden node %d" pid
                 nid))
        nodes)
    t.assign

let equal a b =
  Array.length a.assign = Array.length b.assign
  && Array.for_all2 (fun x y -> x = y) a.assign b.assign

let pp ppf t =
  Format.fprintf ppf "@[<v>mapping:@,";
  Array.iteri
    (fun pid nodes ->
      Format.fprintf ppf "  P%d -> %s@," (pid + 1)
        (String.concat ", "
           (Array.to_list (Array.map (fun n -> Printf.sprintf "N%d" (n + 1)) nodes))))
    t.assign;
  Format.fprintf ppf "@]"
