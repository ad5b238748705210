(* A minimal s-expression reader/printer: the workspace's on-disk
   syntax.  Atoms are bare words or double-quoted strings with the
   usual escapes; lists are parenthesized. *)

type t =
  | Atom of string
  | List of t list

exception Sexp_error of string

let sexp_errorf fmt = Format.kasprintf (fun s -> raise (Sexp_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Every character that ends a bare atom must force quoting, or the
   printed atom would not read back as one. *)
let must_quote s =
  s = ""
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' | '\\' -> true
         | _ -> false)
       s

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_atom buf s =
  if must_quote s then add_escaped buf s else Buffer.add_string buf s

(* The flat form, without closures: the durable and wire bytes. *)
let rec to_buffer buf = function
  | Atom s -> add_atom buf s
  | List [] -> Buffer.add_string buf "()"
  | List (item :: rest) ->
    Buffer.add_char buf '(';
    to_buffer buf item;
    add_rest buf rest

and add_rest buf = function
  | [] -> Buffer.add_char buf ')'
  | item :: rest ->
    Buffer.add_char buf ' ';
    to_buffer buf item;
    add_rest buf rest

(* The pretty form, for people: a nested list printed at depth
   [indent] starts its own line, one space deeper than its parent. *)
let rec add_pretty buf indent = function
  | Atom s -> add_atom buf s
  | List items ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i item ->
        (if i > 0 then
           match item with
           | List _ ->
             Buffer.add_char buf '\n';
             for _ = 0 to indent do
               Buffer.add_char buf ' '
             done
           | Atom _ -> Buffer.add_char buf ' ');
        add_pretty buf (indent + 1) item)
      items;
    Buffer.add_char buf ')'

let to_string ?(pretty = true) sexp =
  let buf = Buffer.create 1024 in
  if pretty then add_pretty buf 0 sexp else to_buffer buf sexp;
  Buffer.contents buf

(* Every list a writer opens is headed by an atom, so each later
   element is preceded by one space: no state. *)
type writer = Buffer.t

let writer buf name =
  Buffer.add_char buf '(';
  add_atom buf name;
  buf

let open_list buf name =
  Buffer.add_string buf " (";
  add_atom buf name

let add buf item =
  Buffer.add_char buf ' ';
  to_buffer buf item

let close_list buf = Buffer.add_char buf ')'

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* A cursor reads one element at a time, so a caller can walk a long
   list without ever holding it as a tree. *)
type cursor = {
  text : string;
  len : int;
  mutable pos : int;
}

let cursor text = { text; len = String.length text; pos = 0 }

let rec skip_ws c =
  if c.pos < c.len then
    match String.unsafe_get c.text c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      c.pos <- c.pos + 1;
      skip_ws c
    | ';' ->
      (* comment to end of line *)
      c.pos <-
        (match String.index_from_opt c.text c.pos '\n' with
        | Some i -> i
        | None -> c.len);
      skip_ws c
    | _ -> ()

let quoted_atom c =
  let start = c.pos + 1 in
  (* the common case has no escape: one scan, one copy *)
  let rec plain i =
    if i >= c.len then sexp_errorf "unterminated string at %d" c.len
    else
      match String.unsafe_get c.text i with
      | '"' -> Some i
      | '\\' -> None
      | _ -> plain (i + 1)
  in
  match plain start with
  | Some stop ->
    c.pos <- stop + 1;
    String.sub c.text start (stop - start)
  | None ->
    let buf = Buffer.create 16 in
    let rec go i =
      if i >= c.len then sexp_errorf "unterminated string at %d" c.len
      else
        match c.text.[i] with
        | '"' -> i + 1
        | '\\' ->
          if i + 1 >= c.len then sexp_errorf "dangling escape";
          (match c.text.[i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | e -> sexp_errorf "bad escape \\%c" e);
          go (i + 2)
        | ch ->
          Buffer.add_char buf ch;
          go (i + 1)
    in
    c.pos <- go start;
    Buffer.contents buf

let bare_atom c =
  let start = c.pos in
  let rec stop i =
    if i >= c.len then i
    else
      match String.unsafe_get c.text i with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> i
      | _ -> stop (i + 1)
  in
  c.pos <- stop start;
  String.sub c.text start (c.pos - start)

let enter c =
  skip_ws c;
  if c.pos >= c.len then sexp_errorf "unexpected end of input";
  if c.text.[c.pos] <> '(' then sexp_errorf "expected a list at %d" c.pos;
  c.pos <- c.pos + 1

let at_close c =
  skip_ws c;
  if c.pos >= c.len then sexp_errorf "unterminated list";
  c.text.[c.pos] = ')'

let leave c =
  if not (at_close c) then sexp_errorf "expected ')' at %d" c.pos;
  c.pos <- c.pos + 1

let rec next c =
  skip_ws c;
  if c.pos >= c.len then sexp_errorf "unexpected end of input";
  match c.text.[c.pos] with
  | '(' ->
    enter c;
    let rec items acc =
      if at_close c then begin
        leave c;
        List (List.rev acc)
      end
      else items (next c :: acc)
    in
    items []
  | '"' -> Atom (quoted_atom c)
  | ')' -> sexp_errorf "unexpected ')' at %d" c.pos
  | _ -> Atom (bare_atom c)

let finish c =
  skip_ws c;
  if c.pos <> c.len then sexp_errorf "trailing input at %d" c.pos

let of_string text =
  let c = cursor text in
  let result = next c in
  finish c;
  result

(* ------------------------------------------------------------------ *)
(* Construction / destructuring helpers                                *)
(* ------------------------------------------------------------------ *)

let atom s = Atom s
let int i = Atom (string_of_int i)
let float f = Atom (Printf.sprintf "%h" f)
let bool b = Atom (string_of_bool b)
let list l = List l
let field name items = List (Atom name :: items)

let as_atom = function
  | Atom s -> s
  | List _ -> sexp_errorf "expected an atom"

let as_int sexp =
  match int_of_string_opt (as_atom sexp) with
  | Some i -> i
  | None -> sexp_errorf "expected an integer, got %S" (as_atom sexp)

let as_float sexp =
  match float_of_string_opt (as_atom sexp) with
  | Some f -> f
  | None -> sexp_errorf "expected a float, got %S" (as_atom sexp)

let as_bool sexp =
  match bool_of_string_opt (as_atom sexp) with
  | Some b -> b
  | None -> sexp_errorf "expected a bool, got %S" (as_atom sexp)

let as_list = function
  | List l -> l
  | Atom a -> sexp_errorf "expected a list, got atom %S" a

(* Access the payload of a [(name item...)] field inside a record. *)
let find_field fields name =
  let matches = function
    | List (Atom n :: rest) when n = name -> Some rest
    | List _ | Atom _ -> None
  in
  match List.find_map matches fields with
  | Some rest -> rest
  | None -> sexp_errorf "missing field %S" name

let find_field_opt fields name =
  let matches = function
    | List (Atom n :: rest) when n = name -> Some rest
    | List _ | Atom _ -> None
  in
  List.find_map matches fields

let one name = function
  | [ x ] -> x
  | _ -> sexp_errorf "field %S expects one item" name
