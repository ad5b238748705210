(* The Hercules design-server wire protocol: length-prefixed binary
   frames over a stream socket.

   Every message is described once below — tag byte, text name, typed
   fields — and both of its forms are derived from that description:
   the binary body that travels on sockets, and the s-expression text
   form used by `remote batch` stdin, debug output and test failures.
   Adding a verb means adding one case. *)

open Ddf_store
module S = Ddf_persist.Sexp
module E = Ddf_core.Error
module M = Ddf_obs.Metrics
module Fault = Ddf_fault.Fault

include Messages

let wire_errorf fmt = Format.kasprintf (fun s -> raise (Wire_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Binary primitives                                                   *)
(* ------------------------------------------------------------------ *)

(* An iovec-style frame list: header buffers interleaved with borrowed
   payload slices.  [gather_write] flushes a whole list with one
   kernel write per socket-buffer fill (the C stub gathers outside the
   OCaml heap and writes with the runtime lock released), so a group
   of frames costs one syscall, not one per frame — and large payload
   bodies are never concatenated through an intermediate string on the
   OCaml side. *)
module Iovec = struct
  type slice = { io_base : string; io_off : int; io_len : int }

  external gather_write : Unix.file_descr -> slice array -> int -> int
    = "ddf_gather_write"

  let of_string s = { io_base = s; io_off = 0; io_len = String.length s }

  let total slices =
    List.fold_left (fun n s -> n + s.io_len) 0 slices

  let concat slices =
    let n = total slices in
    let b = Bytes.create n in
    let off = ref 0 in
    List.iter
      (fun s ->
        Bytes.blit_string s.io_base s.io_off b !off s.io_len;
        off := !off + s.io_len)
      slices;
    Bytes.unsafe_to_string b
end

(* Payload bodies at least this large travel as their own iovec slice
   (zero-copy on the OCaml side); smaller ones are cheaper to append
   to the scratch buffer than to carry as an extra slice. *)
let zero_copy_min = 512

module Enc = struct
  type t = {
    mutable slices : Iovec.slice list;  (* finalized, reversed *)
    buf : Buffer.t;                     (* scratch being filled *)
  }

  let create () = { slices = []; buf = Buffer.create 256 }

  let flush_buf e =
    if Buffer.length e.buf > 0 then begin
      e.slices <- Iovec.of_string (Buffer.contents e.buf) :: e.slices;
      Buffer.clear e.buf
    end

  let u8 e n = Buffer.add_char e.buf (Char.chr (n land 0xff))
  let u32 e n = Buffer.add_int32_le e.buf (Int32.of_int n)
  let int e n = Buffer.add_int64_le e.buf (Int64.of_int n)
  let float e f = Buffer.add_int64_le e.buf (Int64.bits_of_float f)

  let str e s =
    u32 e (String.length s);
    Buffer.add_string e.buf s

  (* An opaque payload body: length-delimited raw bytes, borrowed as a
     slice when large — the codec never escapes or re-encodes them. *)
  let payload e s =
    u32 e (String.length s);
    if String.length s >= zero_copy_min then begin
      flush_buf e;
      e.slices <- Iovec.of_string s :: e.slices
    end
    else Buffer.add_string e.buf s

  let finish e =
    flush_buf e;
    List.rev e.slices
end

module Dec = struct
  type t = { db : string; mutable pos : int }

  let of_string s = { db = s; pos = 0 }

  let need d n =
    if d.pos + n > String.length d.db then
      wire_errorf "truncated binary frame body (at byte %d)" d.pos

  let u8 d =
    need d 1;
    let v = Char.code d.db.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let u32 d =
    need d 4;
    let v = Int32.to_int (String.get_int32_le d.db d.pos) land 0xFFFFFFFF in
    d.pos <- d.pos + 4;
    v

  let int d =
    need d 8;
    let v = Int64.to_int (String.get_int64_le d.db d.pos) in
    d.pos <- d.pos + 8;
    v

  let float d =
    need d 8;
    let v = Int64.float_of_bits (String.get_int64_le d.db d.pos) in
    d.pos <- d.pos + 8;
    v

  let str d =
    let n = u32 d in
    need d n;
    let v = String.sub d.db d.pos n in
    d.pos <- d.pos + n;
    v

  let finished d = d.pos = String.length d.db
end

(* ------------------------------------------------------------------ *)
(* Field types: one description, four derived codecs                   *)
(* ------------------------------------------------------------------ *)

(* How a value of one field type travels in each form.  The text form
   is a run of s-expression items: [print] prepends the value's items,
   [parse] consumes them.  [one] says the type always prints exactly
   one item — list elements and option bodies of any other type are
   wrapped in a list of their own. *)
type 'a ty = {
  enc : Enc.t -> 'a -> unit;
  dec : Dec.t -> 'a;
  print : 'a -> S.t list -> S.t list;
  parse : S.t list -> 'a * S.t list;
  one : bool;
}

let of_items ty items =
  match ty.parse items with
  | v, [] -> v
  | _, extra :: _ ->
    wire_errorf "unexpected %s" (S.to_string ~pretty:false extra)

let item ~enc ~dec ~to_sexp ~of_sexp =
  { enc; dec; one = true;
    print = (fun v rest -> to_sexp v :: rest);
    parse =
      (function
      | x :: rest -> (of_sexp x, rest)
      | [] -> wire_errorf "missing field") }

let int = item ~enc:Enc.int ~dec:Dec.int ~to_sexp:S.int ~of_sexp:S.as_int
let string = item ~enc:Enc.str ~dec:Dec.str ~to_sexp:S.atom ~of_sexp:S.as_atom

(* IEEE bits on the wire, a hex float in text: exact both ways. *)
let float =
  item ~enc:Enc.float ~dec:Dec.float ~to_sexp:S.float ~of_sexp:S.as_float

(* Opaque bytes: journal frames, snapshot chunks, rendered text.  The
   binary body of one at least [zero_copy_min] long is borrowed as its
   own iovec slice. *)
let payload =
  item ~enc:Enc.payload ~dec:Dec.str ~to_sexp:S.atom ~of_sexp:S.as_atom

(* A design-object value: printed once by the sender into an opaque
   payload, parsed once by the receiver; the text form is the value's
   own s-expression. *)
let sexp =
  item
    ~enc:(fun e v -> Enc.payload e (S.to_string ~pretty:false v))
    ~dec:(fun d ->
      let body = Dec.str d in
      try S.of_string body with S.Sexp_error m -> wire_errorf "value: %s" m)
    ~to_sexp:Fun.id ~of_sexp:Fun.id

(* One item holding all of [ty]'s items, for list elements and option
   bodies. *)
let group ty v =
  match ty.print v [] with [ x ] when ty.one -> x | items -> S.List items

let ungroup ty x =
  if ty.one then of_items ty [ x ] else of_items ty (S.as_list x)

let option ty =
  item
    ~enc:(fun e -> function
      | None -> Enc.u8 e 0
      | Some v ->
        Enc.u8 e 1;
        ty.enc e v)
    ~dec:(fun d ->
      match Dec.u8 d with
      | 0 -> None
      | 1 -> Some (ty.dec d)
      | n -> wire_errorf "bad option byte %d" n)
    ~to_sexp:(function None -> S.List [] | Some v -> S.List [ group ty v ])
    ~of_sexp:(function
      | S.List [] -> None
      | S.List [ x ] -> Some (ungroup ty x)
      | x -> wire_errorf "malformed option %s" (S.to_string ~pretty:false x))

let list ty =
  item
    ~enc:(fun e l ->
      Enc.u32 e (List.length l);
      List.iter (ty.enc e) l)
    ~dec:(fun d ->
      let n = Dec.u32 d in
      (* cheap sanity bound: every item costs at least one byte *)
      Dec.need d n;
      List.init n (fun _ -> ty.dec d))
    ~to_sexp:(fun l -> S.List (List.map (group ty) l))
    ~of_sexp:(fun x -> List.map (ungroup ty) (S.as_list x))

(* A field the text form spells [(name v)] and leaves out when the
   value is [absent]; [present] extracts what to print, [inject] wraps
   what was parsed.  Binary carries [bin]'s bytes positionally. *)
let named_as name inner ~bin ~present ~inject ~absent =
  { bin with
    one = false;
    print =
      (fun v rest ->
        match present v with
        | None -> rest
        | Some x -> S.List (S.Atom name :: inner.print x []) :: rest);
    parse =
      (function
      | S.List (S.Atom n :: items) :: rest when n = name ->
        (inject (of_items inner items), rest)
      | rest -> (absent, rest)) }

(* A named optional field: an option in binary, [(name v)] or nothing
   in text. *)
let named name ty =
  named_as name ty ~bin:(option ty) ~present:Fun.id ~inject:Option.some
    ~absent:None

(* A list the text form names and leaves out when empty. *)
let named_list name ty =
  let l = list ty in
  named_as name l ~bin:l
    ~present:(function [] -> None | xs -> Some xs)
    ~inject:Fun.id ~absent:[]

(* A required group the text form spells [(name fields...)]. *)
let tagged name ty =
  item ~enc:ty.enc ~dec:ty.dec
    ~to_sexp:(fun v -> S.List (S.Atom name :: ty.print v []))
    ~of_sexp:(function
      | S.List (S.Atom n :: items) when n = name -> of_items ty items
      | x ->
        wire_errorf "expected (%s ...), got %s" name
          (S.to_string ~pretty:false x))

let unit =
  { enc = (fun _ () -> ()); dec = (fun _ -> ()); one = false;
    print = (fun () rest -> rest); parse = (fun items -> ((), items)) }

let conv inj proj ty =
  { enc = (fun e v -> ty.enc e (proj v));
    dec = (fun d -> inj (ty.dec d));
    print = (fun v rest -> ty.print (proj v) rest);
    parse =
      (fun items ->
        let v, rest = ty.parse items in
        (inj v, rest));
    one = ty.one }

(* Fields in sequence. *)
let t2 a b =
  { enc =
      (fun e (x, y) ->
        a.enc e x;
        b.enc e y);
    dec =
      (fun d ->
        let x = a.dec d in
        let y = b.dec d in
        (x, y));
    print = (fun (x, y) rest -> a.print x (b.print y rest));
    parse =
      (fun items ->
        let x, items = a.parse items in
        let y, items = b.parse items in
        ((x, y), items));
    one = false }

let t3 a b c =
  conv (fun (x, (y, z)) -> (x, y, z)) (fun (x, y, z) -> (x, (y, z)))
    (t2 a (t2 b c))

let t4 a b c d =
  conv (fun (w, (x, y, z)) -> (w, x, y, z)) (fun (w, x, y, z) -> (w, (x, y, z)))
    (t2 a (t3 b c d))

let t5 a b c d e =
  conv (fun (v, (w, x, y, z)) -> (v, w, x, y, z))
    (fun (v, w, x, y, z) -> (v, (w, x, y, z)))
    (t2 a (t4 b c d e))

let t6 a b c d e f =
  conv (fun (u, (v, w, x, y, z)) -> (u, v, w, x, y, z))
    (fun (u, v, w, x, y, z) -> (u, (v, w, x, y, z)))
    (t2 a (t5 b c d e f))

let t7 a b c d e f g =
  conv (fun (s, (u, v, w, x, y, z)) -> (s, u, v, w, x, y, z))
    (fun (s, u, v, w, x, y, z) -> (s, (u, v, w, x, y, z)))
    (t2 a (t6 b c d e f g))

let t8 a b c d e f g h =
  conv (fun (r, (s, u, v, w, x, y, z)) -> (r, s, u, v, w, x, y, z))
    (fun (r, s, u, v, w, x, y, z) -> (r, (s, u, v, w, x, y, z)))
    (t2 a (t7 b c d e f g h))

(* A variant: one case per constructor — its tag byte (binary), its
   name (text), its fields, the two functions between the fields and
   the constructor, and (for requests) whether it must go through the
   server's single-writer loop.  Tags are append-only protocol surface:
   never renumber, and never reuse a retired one. *)
type 'm case =
  | Case : {
      tag : int;
      name : string;
      args : 'a ty;
      inj : 'a -> 'm;
      proj : 'm -> 'a option;
      mutation : bool;
    }
      -> 'm case

let case ?(mutation = false) tag name args inj proj =
  Case { tag; name; args; inj; proj; mutation }

(* A constant constructor: no fields, prints as a bare atom, and is
   recognised by physical equality. *)
let const ?mutation tag name v =
  case ?mutation tag name unit
    (fun () -> v)
    (fun m -> if m == v then Some () else None)

let rec case_of what m = function
  | [] -> wire_errorf "no %s case describes this value" what
  | (Case c as k) :: rest ->
    if Option.is_some (c.proj m) then k else case_of what m rest

let union what cases =
  let by_tag = Array.make 256 None and by_name = Hashtbl.create 64 in
  List.iter
    (fun (Case c as k) ->
      by_tag.(c.tag) <- Some k;
      Hashtbl.replace by_name c.name k)
    cases;
  item
    ~enc:(fun e m ->
      let (Case c) = case_of what m cases in
      Enc.u8 e c.tag;
      c.args.enc e (Option.get (c.proj m)))
    ~dec:(fun d ->
      let tag = Dec.u8 d in
      match by_tag.(tag) with
      | Some (Case c) -> c.inj (c.args.dec d)
      | None -> wire_errorf "unknown %s tag %d" what tag)
    ~to_sexp:(fun m ->
      let (Case c) = case_of what m cases in
      match c.args.print (Option.get (c.proj m)) [] with
      | [] -> S.Atom c.name
      | items -> S.List (S.Atom c.name :: items))
    ~of_sexp:(fun x ->
      let name, items =
        match x with
        | S.Atom n -> (n, [])
        | S.List (S.Atom n :: items) -> (n, items)
        | _ -> wire_errorf "malformed %s %s" what (S.to_string ~pretty:false x)
      in
      match Hashtbl.find_opt by_name name with
      | Some (Case c) -> c.inj (of_items c.args items)
      | None -> wire_errorf "unknown %s %S" what name)

(* A recursive reference, forced on first use. *)
let delay l =
  { enc = (fun e v -> (Lazy.force l).enc e v);
    dec = (fun d -> (Lazy.force l).dec d);
    print = (fun v rest -> (Lazy.force l).print v rest);
    parse = (fun items -> (Lazy.force l).parse items);
    one = true }

(* ------------------------------------------------------------------ *)
(* The message description                                             *)
(* ------------------------------------------------------------------ *)

let bool = union "bool" [ const 0 "final" false; const 1 "retryable" true ]

let catalog =
  union "catalog"
    [ const 0 "entities" Entities; const 1 "tools" Tools;
      const 2 "flows" Flows ]

let filter =
  tagged "filter"
    (conv
       (fun (f_entities, f_user, f_from, f_to, f_keywords, f_text) ->
         { Store.f_entities; f_user; f_from; f_to; f_keywords; f_text })
       (fun (f : Store.filter) ->
         (f.f_entities, f.f_user, f.f_from, f.f_to, f.f_keywords, f.f_text))
       (t6
          (named "entities" (list string))
          (named "user" string) (named "from" int) (named "to" int)
          (named_list "keywords" string) (named "text" string)))

let meta =
  conv
    (fun (user, created_at, label, comment, keywords) ->
      { Store.user; created_at; label; comment; keywords })
    (fun (m : Store.meta) ->
      (m.user, m.created_at, m.label, m.comment, m.keywords))
    (t5 string int string string (list string))

(* (seqno, md5, payload) *)
let sync_frame = t3 int string payload

let error =
  conv
    (fun (code, message, retryable, retry_after, context) ->
      { E.code; message; retryable; retry_after; context })
    (fun (e : E.t) ->
      (e.code, e.message, e.retryable, e.retry_after, e.context))
    (t5
       (conv
          (fun s ->
            (* a code minted by a newer peer *)
            Option.value (E.code_of_string s) ~default:`Internal)
          E.code_to_string string)
       string bool (named "retry-after" float)
       (named_list "ctx" (t2 string string)))

let histogram =
  conv
    (fun (hs_n, hs_sum, hs_min, hs_max, hs_p50, hs_p90, hs_p99) ->
      { M.hs_n; hs_sum; hs_min; hs_max; hs_p50; hs_p90; hs_p99 })
    (fun (h : M.histo) ->
      (h.hs_n, h.hs_sum, h.hs_min, h.hs_max, h.hs_p50, h.hs_p90, h.hs_p99))
    (t7 int float float float float float float)

let metric =
  union "metric"
    [ case 0 "c" (t2 string int)
        (fun (n, v) -> M.Counter (n, v))
        (function M.Counter (n, v) -> Some (n, v) | _ -> None);
      case 1 "g" (t2 string float)
        (fun (n, v) -> M.Gauge (n, v))
        (function M.Gauge (n, v) -> Some (n, v) | _ -> None);
      case 2 "h" (t2 string histogram)
        (fun (n, h) -> M.Histogram (n, h))
        (function M.Histogram (n, h) -> Some (n, h) | _ -> None) ]

(* A mutation of the shared store/history/clock goes through the
   single-writer loop; everything else (including task-window editing,
   which touches only the per-connection session) is a read.  Compact
   counts as a mutation (it rewrites the journal's snapshot), and so do
   the sync digest and frame pulls: they read the wal FILE, which only
   the writer loop may touch.  Subscribe, Repl_ack and Snapshot_export
   never reach the evaluator — the server's connection loop handles
   them itself. *)
let rec request_cases =
  lazy
    [ case 1 "hello" (t2 string int)
        (fun (user, version) -> Hello { user; version })
        (function Hello { user; version } -> Some (user, version) | _ -> None);
      const 2 "ping" Ping;
      const 3 "stat" Stat;
      case 4 "catalog" catalog
        (fun c -> Catalog c)
        (function Catalog c -> Some c | _ -> None);
      case 5 "browse" filter
        (fun f -> Browse f)
        (function Browse f -> Some f | _ -> None);
      case ~mutation:true 6 "install" (t4 string string (list string) sexp)
        (fun (entity, label, keywords, value) ->
          Install { entity; label; keywords; value })
        (function
          | Install { entity; label; keywords; value } ->
            Some (entity, label, keywords, value)
          | _ -> None);
      case ~mutation:true 7 "annotate"
        (t4 int (named "label" string) (named "comment" string)
           (named "keywords" (list string)))
        (fun (iid, label, comment, keywords) ->
          Annotate { iid; label; comment; keywords })
        (function
          | Annotate { iid; label; comment; keywords } ->
            Some (iid, label, comment, keywords)
          | _ -> None);
      case 8 "start-goal" string
        (fun e -> Start_goal e)
        (function Start_goal e -> Some e | _ -> None);
      case 9 "start-data" int
        (fun i -> Start_data i)
        (function Start_data i -> Some i | _ -> None);
      case 10 "expand" int
        (fun n -> Expand n)
        (function Expand n -> Some n | _ -> None);
      case 11 "specialize" (t2 int string)
        (fun (n, sub) -> Specialize (n, sub))
        (function Specialize (n, sub) -> Some (n, sub) | _ -> None);
      case 12 "select" (t2 int (list int))
        (fun (n, iids) -> Select (n, iids))
        (function Select (n, iids) -> Some (n, iids) | _ -> None);
      case 13 "node-browse" (t2 int filter)
        (fun (n, f) -> Node_browse (n, f))
        (function Node_browse (n, f) -> Some (n, f) | _ -> None);
      const 14 "leaves" Leaves;
      case ~mutation:true 15 "run" int
        (fun n -> Run n)
        (function Run n -> Some n | _ -> None);
      const 16 "render" Render;
      case ~mutation:true 17 "recall" int
        (fun i -> Recall i)
        (function Recall i -> Some i | _ -> None);
      case 18 "trace" int
        (fun i -> Trace i)
        (function Trace i -> Some i | _ -> None);
      case 19 "uses" int
        (fun i -> Uses i)
        (function Uses i -> Some i | _ -> None);
      case ~mutation:true 20 "refresh" int
        (fun i -> Refresh i)
        (function Refresh i -> Some i | _ -> None);
      case 21 "save-flow" string
        (fun n -> Save_flow n)
        (function Save_flow n -> Some n | _ -> None);
      case 22 "load-flow" string
        (fun n -> Load_flow n)
        (function Load_flow n -> Some n | _ -> None);
      const 23 "shutdown" Shutdown;
      case 24 "subscribe" int
        (fun s -> Subscribe s)
        (function Subscribe s -> Some s | _ -> None);
      case 25 "repl-ack" int
        (fun s -> Repl_ack s)
        (function Repl_ack s -> Some s | _ -> None);
      const 26 "lag" Lag;
      const ~mutation:true 27 "compact" Compact;
      const 28 "metrics" Metrics;
      const ~mutation:true 29 "sync-digest" Sync_digest;
      case ~mutation:true 30 "sync-frames" (t2 int int)
        (fun (after, limit) -> Sync_frames { after; limit })
        (function
          | Sync_frames { after; limit } -> Some (after, limit)
          | _ -> None);
      case ~mutation:true 31 "sync-ack" (t3 string int (list sync_frame))
        (fun (origin, upto, frames) -> Sync_ack { origin; upto; frames })
        (function
          | Sync_ack { origin; upto; frames } -> Some (origin, upto, frames)
          | _ -> None);
      const 32 "conflicts" Conflicts;
      case ~mutation:true 33 "resolve" (t2 int int)
        (fun (conflict, winner) -> Resolve { conflict; winner })
        (function
          | Resolve { conflict; winner } -> Some (conflict, winner)
          | _ -> None);
      const 34 "snapshot-export" Snapshot_export;
      case 35 "batch" (list (delay request))
        (fun rs -> Batch rs)
        (function Batch rs -> Some rs | _ -> None) ]

and request = lazy (union "request" (Lazy.force request_cases))

let request = Lazy.force request

let rec response_cases =
  lazy
    [ const 1 "ok" Ok_unit;
      case 2 "ok-int" int
        (fun n -> Ok_int n)
        (function Ok_int n -> Some n | _ -> None);
      case 3 "ok-ints" (list int)
        (fun ns -> Ok_ints ns)
        (function Ok_ints ns -> Some ns | _ -> None);
      case 4 "ok-atoms" (list string)
        (fun l -> Ok_atoms l)
        (function Ok_atoms l -> Some l | _ -> None);
      case 5 "ok-text" payload
        (fun t -> Ok_text t)
        (function Ok_text t -> Some t | _ -> None);
      case 6 "ok-nodes" (list (t2 int string))
        (fun l -> Ok_nodes l)
        (function Ok_nodes l -> Some l | _ -> None);
      case 7 "ok-rows"
        (list
           (conv
              (fun (row_iid, row_entity, row_meta) ->
                { row_iid; row_entity; row_meta })
              (fun r -> (r.row_iid, r.row_entity, r.row_meta))
              (t3 int string meta)))
        (fun rows -> Ok_rows rows)
        (function Ok_rows rows -> Some rows | _ -> None);
      case 8 "ok-stat"
        (t8 string int int int int int int float)
        (fun ( st_role, st_seq, st_clock, st_instances, st_records,
               st_store_tick, st_history_tick, st_uptime_s ) ->
          Ok_stat
            { st_role; st_seq; st_clock; st_instances; st_records;
              st_store_tick; st_history_tick; st_uptime_s })
        (function
          | Ok_stat s ->
            Some
              ( s.st_role, s.st_seq, s.st_clock, s.st_instances, s.st_records,
                s.st_store_tick, s.st_history_tick, s.st_uptime_s )
          | _ -> None);
      case 9 "ok-refresh" (t3 int int int)
        (fun (fresh, reran, reused) -> Ok_refresh { fresh; reran; reused })
        (function
          | Ok_refresh { fresh; reran; reused } -> Some (fresh, reran, reused)
          | _ -> None);
      (* tag 10 is reserved: a retired response *)
      case 11 "ok-snapshot-begin" (t2 int int)
        (fun (seq, bytes) -> Ok_snapshot_begin { seq; bytes })
        (function
          | Ok_snapshot_begin { seq; bytes } -> Some (seq, bytes)
          | _ -> None);
      case 12 "ok-snapshot-chunk" payload
        (fun data -> Ok_snapshot_chunk { data })
        (function Ok_snapshot_chunk { data } -> Some data | _ -> None);
      case 13 "ok-snapshot-end" string
        (fun digest -> Ok_snapshot_end { digest })
        (function Ok_snapshot_end { digest } -> Some digest | _ -> None);
      case 14 "ok-frame" sync_frame
        (fun (seq, digest, payload) -> Ok_frame { seq; payload; digest })
        (function
          | Ok_frame { seq; payload; digest } -> Some (seq, digest, payload)
          | _ -> None);
      case 15 "ok-lags"
        (t2 int
           (list
              (conv
                 (fun (lag_follower, lag_acked, lag_sent) ->
                   { lag_follower; lag_acked; lag_sent })
                 (fun r -> (r.lag_follower, r.lag_acked, r.lag_sent))
                 (t3 string int int))))
        (fun (primary_seq, rows) -> Ok_lags { primary_seq; rows })
        (function
          | Ok_lags { primary_seq; rows } -> Some (primary_seq, rows)
          | _ -> None);
      case 16 "ok-metrics" (list metric)
        (fun ms -> Ok_metrics ms)
        (function Ok_metrics ms -> Some ms | _ -> None);
      case 17 "ok-digest"
        (t6 string int int string (list (t2 string int)) (list (t2 int string)))
        (fun (wsid, base, seq, fingerprint, cursors, entries) ->
          Ok_digest { wsid; base; seq; fingerprint; cursors; entries })
        (function
          | Ok_digest { wsid; base; seq; fingerprint; cursors; entries } ->
            Some (wsid, base, seq, fingerprint, cursors, entries)
          | _ -> None);
      case 18 "ok-frames" (list sync_frame)
        (fun fs -> Ok_frames fs)
        (function Ok_frames fs -> Some fs | _ -> None);
      case 19 "ok-sync" (t4 int int int int)
        (fun (sy_applied, sy_skipped, sy_conflicts, sy_cursor) ->
          Ok_sync { sy_applied; sy_skipped; sy_conflicts; sy_cursor })
        (function
          | Ok_sync s ->
            Some (s.sy_applied, s.sy_skipped, s.sy_conflicts, s.sy_cursor)
          | _ -> None);
      case 20 "ok-conflicts"
        (list
           (conv
              (fun ( cf_id, cf_base, cf_ours, cf_theirs, cf_origin, cf_at,
                     cf_winner ) ->
                { cf_id; cf_base; cf_ours; cf_theirs; cf_origin; cf_at;
                  cf_winner })
              (fun c ->
                ( c.cf_id, c.cf_base, c.cf_ours, c.cf_theirs, c.cf_origin,
                  c.cf_at, c.cf_winner ))
              (t7 int int int int string int (option int))))
        (fun rows -> Ok_conflicts rows)
        (function Ok_conflicts rows -> Some rows | _ -> None);
      case 21 "ok-batch" (list (delay response))
        (fun rs -> Ok_batch rs)
        (function Ok_batch rs -> Some rs | _ -> None);
      case 22 "error" error
        (fun e -> Error e)
        (function Error e -> Some e | _ -> None) ]

and response = lazy (union "response" (Lazy.force response_cases))

let response = Lazy.force response
let request_name r =
  let (Case c) = case_of "request" r (Lazy.force request_cases) in
  c.name

let response_name r =
  let (Case c) = case_of "response" r (Lazy.force response_cases) in
  c.name

(* A batch is a mutation iff any member is: the whole pipeline then runs
   as one writer job, so its writes group-commit together. *)
let rec is_mutation = function
  | Batch reqs -> List.exists is_mutation reqs
  | r ->
    let (Case c) = case_of "request" r (Lazy.force request_cases) in
    c.mutation

(* ------------------------------------------------------------------ *)
(* Whole-message forms                                                 *)
(* ------------------------------------------------------------------ *)

let encode_to_string ty v =
  let e = Enc.create () in
  ty.enc e v;
  Iovec.concat (Enc.finish e)

let decode_of_string ty s =
  let d = Dec.of_string s in
  let v = ty.dec d in
  if not (Dec.finished d) then
    wire_errorf "trailing bytes in binary frame (%d of %d consumed)" d.Dec.pos
      (String.length s);
  v

let request_to_binary_string = encode_to_string request
let request_of_binary_string = decode_of_string request
let response_to_binary_string = encode_to_string response
let response_of_binary_string = decode_of_string response

let to_text ty v = S.to_string ~pretty:false (group ty v)

let of_text ty s =
  try ungroup ty (S.of_string s) with S.Sexp_error m -> wire_errorf "%s" m

let request_to_text = to_text request
let request_of_text = of_text request
let response_to_text = to_text response
let response_of_text = of_text response

(* ------------------------------------------------------------------ *)
(* Framed socket I/O                                                   *)
(* ------------------------------------------------------------------ *)

(* Wire traffic accounting: encode/decode latency per frame and bytes
   moved each way.  Surfaced through the Metrics verb, `remote
   metrics` and `hercules top` like every other registry metric. *)
let m_bytes_out = M.counter "wire.binary.bytes_out"
let m_bytes_in = M.counter "wire.binary.bytes_in"
let h_encode = M.histogram "wire.binary.encode_seconds"
let h_decode = M.histogram "wire.binary.decode_seconds"

let max_frame = 64 * 1024 * 1024

(* One fault-checked flush of an iovec frame list: a "wire.send" fault
   (fail / torn) covers every sender.  [Torn k] writes the first [k]
   bytes of the flattened batch and dies. *)
let flush_slices fd slices =
  match Fault.check "wire.send" with
  | Some (Fault.Torn k) ->
    (* the sender dies mid-frame: the peer sees a truncated message *)
    let msg = Iovec.concat slices in
    (try ignore (Unix.write_substring fd msg 0 (min k (String.length msg)))
     with Unix.Unix_error _ -> ());
    raise (Fault.Injected "wire.send")
  | Some Fault.Fail -> raise (Fault.Injected "wire.send")
  | Some (Fault.Delay _) | None -> (
    try
      ignore
        (Iovec.gather_write fd (Array.of_list slices) (Iovec.total slices))
    with Unix.Unix_error (Unix.EPIPE, _, _) ->
      wire_errorf "peer closed the connection")

(* A frame: 0xd8 magic, flags byte (bit0 deadline, bit1 trace), u32-LE
   body length, then the optional header fields in flag order (u32-LE
   deadline ms; u8-length-prefixed trace token), then the body. *)
let magic = '\xd8'

let frame ?deadline_ms ?trace body_slices =
  let blen = Iovec.total body_slices in
  if blen > max_frame then wire_errorf "oversized frame (%d bytes)" blen;
  let h = Buffer.create 48 in
  Buffer.add_char h magic;
  let flags =
    (if deadline_ms = None then 0 else 1) lor if trace = None then 0 else 2
  in
  Buffer.add_char h (Char.chr flags);
  Buffer.add_int32_le h (Int32.of_int blen);
  (match deadline_ms with
  | None -> ()
  | Some ms ->
    (* a budget past the u32 field saturates instead of wrapping *)
    Buffer.add_int32_le h (Int32.of_int (min 0xFFFFFFFF (max 0 ms))));
  (match trace with
  | None -> ()
  | Some ctx ->
    let tok = Ddf_obs.Obs.span_ctx_to_token ctx in
    Buffer.add_char h (Char.chr (String.length tok));
    Buffer.add_string h tok);
  Iovec.of_string (Buffer.contents h) :: body_slices

let encode_frame ?deadline_ms ?trace ty v =
  let t0 = Unix.gettimeofday () in
  let e = Enc.create () in
  ty.enc e v;
  let slices = frame ?deadline_ms ?trace (Enc.finish e) in
  M.observe h_encode (Unix.gettimeofday () -. t0);
  M.incr ~by:(Iovec.total slices) m_bytes_out;
  slices

let send_request ?deadline_ms ?trace fd req =
  flush_slices fd (encode_frame ?deadline_ms ?trace request req)

let send_response ?deadline_ms ?trace fd resp =
  flush_slices fd (encode_frame ?deadline_ms ?trace response resp)

(* A whole group of responses as one flush: the frame lists are
   chained and hit the kernel in a single gathered write — this is the
   replication outbox's group-commit fan-out path. *)
let send_response_batch fd = function
  | [] -> ()
  | items ->
    flush_slices fd
      (List.concat_map
         (fun (resp, trace) -> encode_frame ?trace response resp)
         items)

(* Read exactly [n] bytes; [None] when the stream ends cleanly at a
   message boundary (off = 0). *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Some buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 then None else wire_errorf "truncated frame"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        if off = 0 then None else wire_errorf "connection reset mid-frame"
  in
  go 0

let read_more fd n =
  match read_exact fd n with
  | Some b -> b
  | None -> wire_errorf "truncated frame header"

(* One frame's body, its header fields and its size on the wire;
   [None] on clean EOF at a frame boundary. *)
let recv_frame fd =
  match read_exact fd 6 with
  | None -> None
  | Some hdr ->
    if Bytes.get hdr 0 <> magic then
      wire_errorf "not a protocol v%d frame (first byte 0x%02x)"
        protocol_version
        (Char.code (Bytes.get hdr 0));
    let flags = Char.code (Bytes.get hdr 1) in
    if flags land lnot 3 <> 0 then wire_errorf "bad frame flags 0x%x" flags;
    let blen = Int32.to_int (Bytes.get_int32_le hdr 2) land 0xFFFFFFFF in
    if blen > max_frame then wire_errorf "oversized frame (%d bytes)" blen;
    let hbytes = ref 6 in
    let fm_deadline_ms =
      if flags land 1 = 0 then None
      else begin
        hbytes := !hbytes + 4;
        Some
          (Int32.to_int (Bytes.get_int32_le (read_more fd 4) 0) land 0xFFFFFFFF)
      end
    in
    let fm_trace =
      if flags land 2 = 0 then None
      else
        let n = Char.code (Bytes.get (read_more fd 1) 0) in
        let tok = Bytes.to_string (read_more fd n) in
        hbytes := !hbytes + 1 + n;
        match Ddf_obs.Obs.span_ctx_of_token tok with
        | Some ctx -> Some ctx
        | None -> wire_errorf "bad trace token %S" tok
    in
    let body =
      match read_exact fd blen with
      | Some b -> Bytes.unsafe_to_string b
      | None -> wire_errorf "truncated frame"
    in
    Some (body, { fm_deadline_ms; fm_trace }, !hbytes + blen)

let recv ty fd =
  match recv_frame fd with
  | None -> None
  | Some (body, meta, nbytes) ->
    let t0 = Unix.gettimeofday () in
    let v = decode_of_string ty body in
    M.observe h_decode (Unix.gettimeofday () -. t0);
    M.incr ~by:nbytes m_bytes_in;
    Some (v, meta)

let recv_request fd = recv request fd
let recv_response fd = recv response fd

(* Dial a server's socket and say hello.  A server refusing us (at
   capacity) may answer and hang up before reading the hello, so a
   failed send still leaves its reason to read. *)
let connect ?timeout ~user socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       wire_errorf "cannot connect to %s: %s" socket (Unix.error_message e));
    Option.iter
      (fun s ->
        try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
        with Unix.Unix_error _ | Invalid_argument _ -> ())
      timeout;
    (try send_request fd (Hello { user; version = protocol_version })
     with Wire_error _ | Unix.Unix_error _ -> ());
    match recv_response fd with
    | Some (Ok_unit, _) -> ()
    | Some (Error err, _) -> raise (E.Ddf_error err)
    | Some (resp, _) ->
      wire_errorf "unexpected %s answer to hello" (response_name resp)
    | None -> wire_errorf "%s closed the connection during hello" socket
    | exception Unix.Unix_error (e, _, _) ->
      wire_errorf "%s" (Unix.error_message e)
  with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let m_snapshots_streamed = M.counter "replica.snapshots_streamed"

(* Stream a pinned snapshot descriptor as begin/chunk/end frames.  The
   caller opened [sfd] while the writer was excluded, so the descriptor
   pins the snapshot inode — a later compaction renames a fresh file
   into place but cannot disturb these bytes.  Two passes: one for the
   md5, one for the chunks; at no point is more than one chunk in
   memory.  Closes [sfd]. *)
let send_snapshot fd ~seq sfd =
  let ic = Unix.in_channel_of_descr sfd in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let size = in_channel_length ic in
  seek_in ic 0;
  let digest = Digest.to_hex (Digest.channel ic size) in
  seek_in ic 0;
  send_response fd (Ok_snapshot_begin { seq; bytes = size });
  let buf = Bytes.create snapshot_chunk_bytes in
  let rec go remaining =
    if remaining > 0 then begin
      let k = min remaining (Bytes.length buf) in
      really_input ic buf 0 k;
      send_response fd (Ok_snapshot_chunk { data = Bytes.sub_string buf 0 k });
      go (remaining - k)
    end
  in
  go size;
  send_response fd (Ok_snapshot_end { digest });
  M.incr m_snapshots_streamed

(* Spool the rest of a streamed snapshot, after its
   [Ok_snapshot_begin], into [path]: chunk frames until
   [Ok_snapshot_end], whose digest covers the whole file.  Only one
   chunk is ever held in memory; on any failure the file is removed. *)
let recv_snapshot fd ~bytes path =
  let oc = open_out_bin path in
  let fail e =
    close_out_noerr oc;
    (try Sys.remove path with Sys_error _ -> ());
    raise e
  in
  let failf fmt = Format.kasprintf (fun m -> fail (Wire_error m)) fmt in
  let rec chunks received =
    match recv_response fd with
    | Some (Ok_snapshot_chunk { data }, _) ->
      output_string oc data;
      chunks (received + String.length data)
    | Some (Ok_snapshot_end { digest }, _) ->
      close_out oc;
      if received <> bytes then
        failf "snapshot stream ended short: %d of %d bytes" received bytes;
      if not (String.equal (Digest.to_hex (Digest.file path)) digest) then
        failf "snapshot stream failed its checksum"
    | Some (Error err, _) -> fail (E.Ddf_error err)
    | Some _ -> failf "unexpected message inside a snapshot stream"
    | None -> failf "peer closed the stream mid-snapshot"
    | exception (Wire_error _ as e) -> fail e
    | exception Unix.Unix_error (e, _, _) ->
      failf "snapshot stream: %s" (Unix.error_message e)
  in
  chunks 0
