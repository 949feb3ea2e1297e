module App = Ftes_app.App
module Graph = Ftes_app.Graph
module Overheads = Ftes_app.Overheads
module Transparency = Ftes_app.Transparency
module Arch = Ftes_arch.Arch
module Bus = Ftes_arch.Bus
module Wcet = Ftes_arch.Wcet

type t = {
  app : App.t;
  arch : Arch.t;
  wcet : Wcet.t;
  k : int;
}

type error =
  | Syntax of { line : int; message : string }
  | Unreadable of string

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* Build part of the model from values read on [line]: an argument the
   model rejects is an error at that line. *)
let at line f =
  try f ()
  with Invalid_argument message -> raise (Parse_error { line; message })

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type proc_decl = {
  p_line : int;
  p_name : string;
  p_alpha : float;
  p_mu : float;
  p_chi : float;
  p_release : float;
  p_local_deadline : float option;
  p_frozen : bool;
}

type msg_decl = {
  m_line : int;
  m_name : string;
  m_from : string;
  m_to : string;
  m_size : float;
  m_frozen : bool;
}

(* Directives with the line they came from. *)
type parse_state = {
  mutable k : (int * int) option;
  mutable deadline : (int * float) option;
  mutable period : (int * float) option;
  mutable nodes : (int * int) option;
  mutable procs : proc_decl list;  (* reversed *)
  mutable msgs : msg_decl list;  (* reversed *)
  mutable wcets : (int * string * string list) list;  (* reversed *)
}

let tokenize line =
  let without_comment =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' without_comment
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let float_of ln s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> f
  | Some _ | None -> fail ln "expected a finite number, got %S" s

let int_of ln s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail ln "expected an integer, got %S" s

(* Parse [key value] option pairs and flags from a token list. *)
let parse_process ln toks =
  match toks with
  | name :: rest ->
      let d =
        ref
          {
            p_line = ln;
            p_name = name;
            p_alpha = 0.;
            p_mu = 0.;
            p_chi = 0.;
            p_release = 0.;
            p_local_deadline = None;
            p_frozen = false;
          }
      in
      let rec go = function
        | [] -> ()
        | "frozen" :: rest ->
            d := { !d with p_frozen = true };
            go rest
        | "alpha" :: v :: rest ->
            d := { !d with p_alpha = float_of ln v };
            go rest
        | "mu" :: v :: rest ->
            d := { !d with p_mu = float_of ln v };
            go rest
        | "chi" :: v :: rest ->
            d := { !d with p_chi = float_of ln v };
            go rest
        | "release" :: v :: rest ->
            d := { !d with p_release = float_of ln v };
            go rest
        | "local-deadline" :: v :: rest ->
            d := { !d with p_local_deadline = Some (float_of ln v) };
            go rest
        | tok :: _ -> fail ln "unknown process attribute %S" tok
      in
      go rest;
      !d
  | [] -> fail ln "process: missing name"

let parse_message ln toks =
  match toks with
  | name :: "from" :: src :: "to" :: dst :: rest ->
      let size = ref 0. and frozen = ref false in
      let rec go = function
        | [] -> ()
        | "size" :: v :: rest ->
            size := float_of ln v;
            go rest
        | "frozen" :: rest ->
            frozen := true;
            go rest
        | tok :: _ -> fail ln "unknown message attribute %S" tok
      in
      go rest;
      { m_line = ln; m_name = name; m_from = src; m_to = dst; m_size = !size;
        m_frozen = !frozen }
  | _ -> fail ln "message: expected 'message <name> from <P> to <P> ...'"

let parse_bus ln toks =
  match toks with
  | "tdma" :: rest ->
      let slot = ref 10. and bandwidth = ref 1. in
      let rec go = function
        | [] -> ()
        | "slot" :: v :: rest ->
            slot := float_of ln v;
            go rest
        | "bandwidth" :: v :: rest ->
            bandwidth := float_of ln v;
            go rest
        | tok :: _ -> fail ln "unknown tdma attribute %S" tok
      in
      go rest;
      `Tdma (!slot, !bandwidth)
  | "single" :: rest ->
      let bandwidth = ref 1. and setup = ref 0. in
      let rec go = function
        | [] -> ()
        | "bandwidth" :: v :: rest ->
            bandwidth := float_of ln v;
            go rest
        | "setup" :: v :: rest ->
            setup := float_of ln v;
            go rest
        | tok :: _ -> fail ln "unknown single-bus attribute %S" tok
      in
      go rest;
      `Single (!bandwidth, !setup)
  | _ -> fail ln "bus: expected 'bus tdma ...' or 'bus single ...'"

let parse text =
  let st =
    {
      k = None;
      deadline = None;
      period = None;
      nodes = None;
      procs = [];
      msgs = [];
      wcets = [];
    }
  in
  let bus_spec = ref None in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      match tokenize line with
      | [] -> ()
      | "k" :: [ v ] -> st.k <- Some (ln, int_of ln v)
      | "deadline" :: [ v ] -> st.deadline <- Some (ln, float_of ln v)
      | "period" :: [ v ] -> st.period <- Some (ln, float_of ln v)
      | "nodes" :: [ v ] -> st.nodes <- Some (ln, int_of ln v)
      | "bus" :: rest -> bus_spec := Some (ln, parse_bus ln rest)
      | "process" :: rest -> st.procs <- parse_process ln rest :: st.procs
      | "message" :: rest -> st.msgs <- parse_message ln rest :: st.msgs
      | "wcet" :: name :: entries ->
          st.wcets <- (ln, name, entries) :: st.wcets
      | tok :: _ -> fail ln "unknown directive %S" tok)
    lines;
  (* A directive missing altogether is reported at the last line. *)
  let last =
    let n = List.length lines in
    max 1 (if String.ends_with ~suffix:"\n" text then n - 1 else n)
  in
  let k =
    match st.k with
    | Some (ln, k) when k < 0 -> fail ln "k must not be negative (got %d)" k
    | Some (_, k) -> k
    | None -> 1
  in
  let nodes =
    match st.nodes with
    | Some (_, n) when n > 0 -> n
    | Some (ln, n) -> fail ln "nodes must be positive (got %d)" n
    | None -> fail last "missing 'nodes' directive"
  in
  let procs = List.rev st.procs in
  let msgs = List.rev st.msgs in
  if procs = [] then fail last "no processes declared";
  let pid_of_name = Hashtbl.create 16 in
  List.iteri
    (fun pid d ->
      if Hashtbl.mem pid_of_name d.p_name then
        fail d.p_line "duplicate process %S" d.p_name;
      Hashtbl.add pid_of_name d.p_name pid)
    procs;
  let lookup ln name =
    match Hashtbl.find_opt pid_of_name name with
    | Some pid -> pid
    | None -> fail ln "unknown process %S" name
  in
  (* Every process needs a WCET row of [nodes] entries, checked before
     anything of size [nodes] is built: the document bounds the count. *)
  if st.wcets = [] then fail last "no wcet rows";
  List.iter
    (fun (ln, name, entries) ->
      if List.length entries <> nodes then
        fail ln "wcet %s: expected %d entries, got %d" name nodes
          (List.length entries))
    st.wcets;
  let bus =
    match !bus_spec with
    | Some (ln, `Tdma (slot, bw)) ->
        at ln (fun () -> Bus.tdma ~slot_length:slot ~bandwidth:bw nodes)
    | Some (ln, `Single (bw, setup)) ->
        at ln (fun () -> Bus.single ~setup ~bandwidth:bw ())
    | None -> Arch.default_bus ~node_count:nodes
  in
  let arch = Arch.make ~node_count:nodes ~bus () in
  let b = Graph.Builder.create () in
  List.iter
    (fun d ->
      at d.p_line (fun () ->
          let overheads =
            Overheads.make ~alpha:d.p_alpha ~mu:d.p_mu ~chi:d.p_chi
          in
          ignore
            (Graph.Builder.add_process b ~overheads ~release:d.p_release
               ?local_deadline:d.p_local_deadline ~name:d.p_name)))
    procs;
  let frozen = ref [] in
  List.iter
    (fun m ->
      let mid =
        at m.m_line (fun () ->
            Graph.Builder.add_message b ~name:m.m_name
              ~src:(lookup m.m_line m.m_from) ~dst:(lookup m.m_line m.m_to)
              ~size:m.m_size)
      in
      if m.m_frozen then frozen := Transparency.Msg mid :: !frozen)
    msgs;
  List.iter
    (fun d ->
      if d.p_frozen then
        frozen := Transparency.Proc (lookup d.p_line d.p_name) :: !frozen)
    procs;
  (* A cycle is reported at the last message, one of which closes it. *)
  let graph =
    at
      (List.fold_left (fun _ m -> m.m_line) last msgs)
      (fun () -> Graph.Builder.build b)
  in
  let wcet = Wcet.create ~procs:(List.length procs) ~nodes in
  List.iter
    (fun (ln, name, entries) ->
      let pid = lookup ln name in
      List.iteri
        (fun nid entry ->
          if entry <> "X" && entry <> "x" then
            let c = float_of ln entry in
            at ln (fun () -> Wcet.set wcet ~pid ~nid c))
        entries)
    (List.rev st.wcets);
  List.iteri
    (fun pid d ->
      if Wcet.allowed_nodes wcet ~pid = [] then
        fail d.p_line "process %s has no WCET on any node" d.p_name)
    procs;
  let period =
    match (st.period, st.deadline) with
    | Some (_, p), _ -> p
    | None, Some (_, d) -> d
    | None, None -> 1e9
  in
  let deadline = match st.deadline with Some (_, d) -> d | None -> period in
  let app =
    at
      (match (st.period, st.deadline) with
      | Some (ln, p), _ when p <= 0. -> ln
      | _, Some (ln, _) | Some (ln, _), None -> ln
      | None, None -> last)
      (fun () ->
        App.make
          ~transparency:(Transparency.of_list !frozen)
          ~graph ~deadline ~period ())
  in
  { app; arch; wcet; k }

let of_string text =
  match parse text with
  | d -> Ok d
  | exception Parse_error { line; message } -> Error (Syntax { line; message })

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Shortest decimal rendering that parses back to the same float. *)
let fstr f =
  let try_prec p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  match try_prec 6 with
  | Some s -> s
  | None -> (
      match try_prec 12 with
      | Some s -> s
      | None -> (
          match try_prec 15 with Some s -> s | None -> Printf.sprintf "%.17g" f))

let bus_to_string arch =
  let b = Arch.bus arch in
  if Bus.is_tdma b then
    Printf.sprintf "bus tdma slot %s bandwidth %s"
      (fstr (Bus.round_length b /. float_of_int (Arch.node_count arch)))
      (fstr
         (let tx = Bus.tx_time b ~size:1. in
          if tx > 0. then 1. /. tx else 1.))
  else
    let tx1 = Bus.tx_time b ~size:1. and tx2 = Bus.tx_time b ~size:2. in
    let per_unit = tx2 -. tx1 in
    let setup = tx1 -. per_unit in
    Printf.sprintf "bus single bandwidth %s setup %s"
      (fstr (if per_unit > 0. then 1. /. per_unit else 1.))
      (fstr (max 0. setup))

let to_string t =
  let buf = Buffer.create 1024 in
  let g = t.app.App.graph in
  let tr = t.app.App.transparency in
  Buffer.add_string buf "# ftes synthesis instance\n";
  Buffer.add_string buf (Printf.sprintf "k %d\n" t.k);
  Buffer.add_string buf
    (Printf.sprintf "deadline %s\n" (fstr t.app.App.deadline));
  Buffer.add_string buf (Printf.sprintf "period %s\n" (fstr t.app.App.period));
  Buffer.add_string buf
    (Printf.sprintf "nodes %d\n" (Arch.node_count t.arch));
  Buffer.add_string buf (bus_to_string t.arch ^ "\n\n");
  Array.iter
    (fun (p : Graph.process) ->
      Buffer.add_string buf
        (Printf.sprintf "process %s alpha %s mu %s chi %s" p.Graph.pname
           (fstr p.Graph.overheads.Overheads.alpha)
           (fstr p.Graph.overheads.Overheads.mu)
           (fstr p.Graph.overheads.Overheads.chi));
      if p.Graph.release <> 0. then
        Buffer.add_string buf
          (Printf.sprintf " release %s" (fstr p.Graph.release));
      (match p.Graph.local_deadline with
      | Some d ->
          Buffer.add_string buf (Printf.sprintf " local-deadline %s" (fstr d))
      | None -> ());
      if Transparency.is_frozen_proc tr p.Graph.pid then
        Buffer.add_string buf " frozen";
      Buffer.add_char buf '\n')
    (Graph.processes g);
  Buffer.add_char buf '\n';
  Array.iter
    (fun (m : Graph.message) ->
      Buffer.add_string buf
        (Printf.sprintf "message %s from %s to %s size %s" m.Graph.mname
           (Graph.process g m.Graph.src).Graph.pname
           (Graph.process g m.Graph.dst).Graph.pname (fstr m.Graph.size));
      if Transparency.is_frozen_msg tr m.Graph.mid then
        Buffer.add_string buf " frozen";
      Buffer.add_char buf '\n')
    (Graph.messages g);
  Buffer.add_char buf '\n';
  Array.iter
    (fun (p : Graph.process) ->
      Buffer.add_string buf (Printf.sprintf "wcet %s" p.Graph.pname);
      for nid = 0 to Arch.node_count t.arch - 1 do
        match Wcet.get t.wcet ~pid:p.Graph.pid ~nid with
        | Some c -> Buffer.add_string buf (Printf.sprintf " %s" (fstr c))
        | None -> Buffer.add_string buf " X"
      done;
      Buffer.add_char buf '\n')
    (Graph.processes g);
  Buffer.contents buf

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error message -> Error (Unreadable message)

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let to_problem ?policies ?mapping t =
  let policies =
    match policies with
    | Some p -> p
    | None -> Ftes_ftcpg.Problem.default_policies ~app:t.app ~k:t.k
  in
  let mapping =
    match mapping with
    | Some m -> m
    | None -> Ftes_ftcpg.Problem.fastest_mapping ~app:t.app ~wcet:t.wcet ~policies
  in
  Ftes_ftcpg.Problem.make ~app:t.app ~arch:t.arch ~wcet:t.wcet ~k:t.k ~policies
    ~mapping

let equal (a : t) (b : t) =
  a.k = b.k
  && a.app.App.deadline = b.app.App.deadline
  && a.app.App.period = b.app.App.period
  && Arch.node_count a.arch = Arch.node_count b.arch
  && Graph.process_count a.app.App.graph = Graph.process_count b.app.App.graph
  && Graph.message_count a.app.App.graph = Graph.message_count b.app.App.graph
  && Transparency.equal a.app.App.transparency b.app.App.transparency
  && (let ga = a.app.App.graph and gb = b.app.App.graph in
      Array.for_all2
        (fun (p : Graph.process) (q : Graph.process) ->
          p.Graph.pname = q.Graph.pname
          && Overheads.equal p.Graph.overheads q.Graph.overheads
          && p.Graph.release = q.Graph.release
          && p.Graph.local_deadline = q.Graph.local_deadline)
        (Graph.processes ga) (Graph.processes gb)
      && Array.for_all2
           (fun (m : Graph.message) (n : Graph.message) ->
             m.Graph.mname = n.Graph.mname
             && m.Graph.src = n.Graph.src
             && m.Graph.dst = n.Graph.dst
             && m.Graph.size = n.Graph.size)
           (Graph.messages ga) (Graph.messages gb))
  && (let rec eq pid =
        pid >= Wcet.proc_count a.wcet
        || (List.for_all
              (fun nid ->
                Wcet.get a.wcet ~pid ~nid = Wcet.get b.wcet ~pid ~nid)
              (List.init (Wcet.node_count a.wcet) (fun i -> i))
           && eq (pid + 1))
      in
      eq 0)
