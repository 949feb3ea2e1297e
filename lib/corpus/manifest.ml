(* The checked-in corpus oracle: parse/print of corpus/manifest.json.
   The repo carries no JSON library, so this module hand-rolls both
   directions over a minimal JSON value type — strict enough for the
   manifest grammar, tolerant of whitespace and field order. *)

type entry = {
  id : string;
  tier : string;
  kind : string;
  length : float;
  digest : string;
  verdict : string;
}

type t = { version : int; entries : entry list }

let schema_version = 1
let empty = { version = schema_version; entries = [] }
let find t id = List.find_opt (fun e -> e.id = id) t.entries
let ids t = List.map (fun e -> e.id) t.entries

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let entry_to_string e =
  let str = Ftes_util.Events.json_string in
  Printf.sprintf
    "{\"id\": %s, \"tier\": %s, \"kind\": %s, \"length\": %.6f, \
     \"digest\": %s, \"verdict\": %s}"
    (str e.id) (str e.tier) (str e.kind) e.length (str e.digest)
    (str e.verdict)

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"schema_version\": %d,\n  \"instances\": [\n"
       t.version);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b ("    " ^ entry_to_string e))
    t.entries;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Parse_error of string

let max_depth = 512

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'; advance ()
           | '\\' -> Buffer.add_char b '\\'; advance ()
           | '/' -> Buffer.add_char b '/'; advance ()
           | 'n' -> Buffer.add_char b '\n'; advance ()
           | 't' -> Buffer.add_char b '\t'; advance ()
           | 'r' -> Buffer.add_char b '\r'; advance ()
           | 'u' ->
               if !pos + 4 >= n then fail "bad \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex)
                 with _ -> fail "bad \\u escape"
               in
               (* Manifest strings are ASCII; anything else round-trips
                  as '?' rather than growing a UTF-8 encoder here. *)
               Buffer.add_char b
                 (if code < 0x80 then Char.chr code else '?');
               pos := !pos + 5
           | c -> fail (Printf.sprintf "bad escape \\%C" c));
          go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when Float.is_finite f -> f
    | Some _ | None -> fail "bad number"
  in
  (* Nesting is bounded so a hostile document is an error, not a stack
     overflow. *)
  let depth = ref 0 in
  let rec parse_value () =
    skip_ws ();
    if !depth >= max_depth then fail "nesting too deep";
    incr depth;
    let v = parse_one () in
    decr depth;
    v
  and parse_one () =
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Jobj [])
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((key, v) :: acc)
            | Some '}' -> advance (); List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Jobj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Jarr [])
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Jarr (elements [])
        end
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some ('-' | '0' .. '9') -> Jnum (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let field obj name =
  match List.assoc_opt name obj with
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" name))

let as_string name = function
  | Jstr s -> s
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected string" name))

let as_number name = function
  | Jnum f -> f
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected number" name))

let entry_of_json = function
  | Jobj fields ->
      {
        id = as_string "id" (field fields "id");
        tier = as_string "tier" (field fields "tier");
        kind = as_string "kind" (field fields "kind");
        length = as_number "length" (field fields "length");
        digest = as_string "digest" (field fields "digest");
        verdict = as_string "verdict" (field fields "verdict");
      }
  | _ -> raise (Parse_error "instance entry: expected object")

let of_string s =
  match parse_json s with
  | exception Parse_error msg -> Error msg
  | Jobj fields -> (
      try
        let version =
          int_of_float (as_number "schema_version" (field fields "schema_version"))
        in
        let entries =
          match field fields "instances" with
          | Jarr items -> List.map entry_of_json items
          | _ -> raise (Parse_error "field \"instances\": expected array")
        in
        if version <> schema_version then
          Error
            (Printf.sprintf "unsupported manifest schema_version %d (want %d)"
               version schema_version)
        else Ok { version; entries }
      with Parse_error msg -> Error msg)
  | _ -> Error "manifest: expected a top-level object"

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> of_string contents

let save path t =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string t))

let json_of_string s =
  match parse_json s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
