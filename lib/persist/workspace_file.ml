(* Workspace persistence: the framework is a database in the paper, so
   a session -- store instances with their meta-data, history records,
   the flow catalog, the logical clock -- saves to one s-expression
   file and loads back bit-for-bit.

   Instance and record identifiers are dense and allocated in order by
   the store and the history, so loading re-inserts them in id order
   and asserts the ids come back unchanged; every payload's content
   hash is recomputed on load and checked against the stored one.

   Both directions stream: a save prints one instance at a time
   through a bounded buffer, and a load parses, decodes, checks and
   installs one instance at a time, so the whole file never exists as
   one tree. *)

open Ddf_store
open Ddf_history
module S = Sexp

exception Persist_error of string

let persist_errorf fmt = Format.kasprintf (fun s -> raise (Persist_error s)) fmt

let format_version = 1

(* ------------------------------------------------------------------ *)
(* Saving                                                              *)
(* ------------------------------------------------------------------ *)

let meta_to_sexp (m : Store.meta) =
  S.list
    [ S.atom m.Store.user; S.int m.Store.created_at; S.atom m.Store.label;
      S.atom m.Store.comment; S.list (List.map S.atom m.Store.keywords) ]

let meta_of_sexp sexp =
  match S.as_list sexp with
  | [ user; created_at; label; comment; keywords ] ->
    Store.meta ~user:(S.as_atom user) ~label:(S.as_atom label)
      ~comment:(S.as_atom comment)
      ~keywords:(List.map S.as_atom (S.as_list keywords))
      ~created_at:(S.as_int created_at) ()
  | _ -> persist_errorf "malformed meta"

(* [resident_only] refuses a payload the store would have to reload
   from cold storage: the loader is not safe to call off the writer. *)
let instance_to_sexp ~resident_only snap iid =
  if resident_only && not (Store.Snapshot.payload_resident snap iid) then
    persist_errorf "payload of instance %d is not resident" iid;
  S.list
    [ S.int iid;
      S.atom (Store.Snapshot.entity_of snap iid);
      meta_to_sexp (Store.Snapshot.meta_of snap iid);
      S.atom (Store.Snapshot.hash_of snap iid);
      Codec.value_to_sexp (Store.Snapshot.payload snap iid) ]

let record_to_sexp (r : History.record) =
  S.list
    [ S.int r.History.rid;
      S.atom r.History.task_entity;
      (match r.History.tool with None -> S.atom "-" | Some t -> S.int t);
      S.list
        (List.map
           (fun (role, iid) -> S.list [ S.atom role; S.int iid ])
           r.History.inputs);
      S.list
        (List.map
           (fun (entity, iid) -> S.list [ S.atom entity; S.int iid ])
           r.History.outputs);
      S.int r.History.at ]

let conflict_to_sexp (c : History.conflict) =
  S.list
    [ S.int c.History.cid; S.int c.History.c_base; S.int c.History.c_ours;
      S.int c.History.c_theirs; S.atom c.History.c_origin;
      S.int c.History.c_at;
      (match c.History.c_winner with None -> S.atom "-" | Some w -> S.int w) ]

let conflict_of_sexp sexp =
  match S.as_list sexp with
  | [ cid; base; ours; theirs; origin; at; winner ] ->
    let winner =
      match winner with S.Atom "-" -> None | w -> Some (S.as_int w)
    in
    (S.as_int cid, S.as_int base, S.as_int ours, S.as_int theirs,
     S.as_atom origin, S.as_int at, winner)
  | _ -> persist_errorf "malformed conflict"

type record_parts = {
  rp_rid : int;
  rp_task_entity : string;
  rp_tool : Store.iid option;
  rp_inputs : (string * Store.iid) list;
  rp_outputs : (string * Store.iid) list;
  rp_at : int;
}

let record_of_sexp sexp =
  match S.as_list sexp with
  | [ rid; task; tool; inputs; outputs; at ] ->
    let tool = match tool with S.Atom "-" -> None | t -> Some (S.as_int t) in
    let pair sexp =
      match S.as_list sexp with
      | [ k; iid ] -> (S.as_atom k, S.as_int iid)
      | _ -> persist_errorf "malformed binding"
    in
    { rp_rid = S.as_int rid; rp_task_entity = S.as_atom task; rp_tool = tool;
      rp_inputs = List.map pair (S.as_list inputs);
      rp_outputs = List.map pair (S.as_list outputs); rp_at = S.as_int at }
  | _ -> persist_errorf "malformed record"

(* The bound on the buffer a streamed save drains through. *)
let chunk_bytes = 65536

(* Everything a save writes, captured at one instant: one pinned view
   plus the clock, the user and the flow catalog beside it.  Writing an
   image reads nothing live, so it may run on another domain while the
   session keeps committing. *)
type image = {
  i_user : string;
  i_clock : int;
  i_seq : int option;
  i_view : Ddf_exec.Engine.view;
  i_flows : (string * Ddf_graph.Task_graph.t) list;
}

let image ?seq session =
  let ctx = Ddf_session.Session.context session in
  { i_user = ctx.Ddf_exec.Engine.user; i_clock = ctx.Ddf_exec.Engine.clock;
    i_seq = seq; i_view = Ddf_session.Session.pin session;
    i_flows =
      List.filter_map
        (fun name ->
          Option.map
            (fun g -> (name, g))
            (Ddf_session.Session.catalog_flow session name))
        (Ddf_session.Session.flow_catalog session) }

(* Emit the whole file into [buf], one instance or record at a time,
   its sections in the one order the reader requires and its
   instances in ascending iid order (installation order).  [drain]
   runs whenever [buf] holds at least [chunk_bytes] and once at the
   end; a drain that empties [buf] keeps the save in bounded memory.
   The bytes are exactly [S.to_string ~pretty:false] of the file's
   tree followed by a newline. *)
let emit ?(resident_only = false) img buf ~drain =
  let snap = img.i_view.Ddf_exec.Engine.v_store in
  let history = img.i_view.Ddf_exec.Engine.v_history in
  let w = S.writer buf "ddf_workspace" in
  let section name items item_to_sexp =
    S.open_list w name;
    List.iter
      (fun item ->
        S.add w (item_to_sexp item);
        if Buffer.length buf >= chunk_bytes then drain ())
      items;
    S.close_list w
  in
  S.add w (S.field "version" [ S.int format_version ]);
  Option.iter (fun seq -> S.add w (S.field "seq" [ S.int seq ])) img.i_seq;
  S.add w (S.field "user" [ S.atom img.i_user ]);
  S.add w (S.field "clock" [ S.int img.i_clock ]);
  section "instances"
    (Store.Snapshot.all_instances snap)
    (instance_to_sexp ~resident_only snap);
  section "records" (History.Snapshot.records history) record_to_sexp;
  (* omitted when empty, so files without sync conflicts keep the
     exact pre-sync shape *)
  (match History.Snapshot.all_conflicts history with
  | [] -> ()
  | cs -> section "conflicts" cs conflict_to_sexp);
  section "flows" img.i_flows (fun (name, g) ->
      S.list [ S.atom name; S.atom (Ddf_graph.Sexp_form.to_string g) ]);
  S.close_list w;
  Buffer.add_char buf '\n';
  drain ()

let save_image img =
  let buf = Buffer.create chunk_bytes in
  emit img buf ~drain:ignore;
  Buffer.contents buf

let output_image ?resident_only img oc =
  let buf = Buffer.create chunk_bytes in
  emit ?resident_only img buf ~drain:(fun () ->
      Buffer.output_buffer oc buf;
      Buffer.clear buf)

let save session = save_image (image session)
let output session oc = output_image (image session) oc

let save_file session path =
  let oc = open_out path in
  (try output session oc
   with e ->
     close_out oc;
     raise e);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

(* Step into the next section and check its name. *)
let enter_section c name =
  S.enter c;
  match S.next c with
  | S.Atom n when n = name -> ()
  | S.Atom n -> persist_errorf "expected section %s, found %s" name n
  | S.List _ -> persist_errorf "expected section %s" name

(* A one-item header section: [(name item)]. *)
let header c name =
  enter_section c name;
  let item = S.next c in
  S.leave c;
  item

(* Each element of the section the cursor is in, then step out. *)
let rec each_item c f =
  if S.at_close c then S.leave c
  else begin
    f (S.next c);
    each_item c f
  end

let section_items c =
  let items = ref [] in
  each_item c (fun sexp -> items := sexp :: !items);
  List.rev !items

(* Decode, hash-check and install one instance.  Its tree is dropped
   as soon as the payload is decoded.  The store assigns iids densely
   in put order, so each instance must carry the iid the store will
   assign next. *)
let load_instance store sexp =
  match S.as_list sexp with
  | [ iid; entity; meta; hash; value ] ->
    let iid = S.as_int iid in
    let due = Store.Snapshot.tick (Store.snapshot store) in
    if iid <> due then
      persist_errorf "instance ids are not dense and ascending (%d where %d \
                      was due)" iid due;
    let value =
      try Codec.value_of_sexp value
      with Codec.Codec_error m -> persist_errorf "instance %d: %s" iid m
    in
    let stored_hash = S.as_atom hash in
    if Ddf_data.hash value <> stored_hash then
      persist_errorf "instance %d: content hash mismatch (file corrupt?)" iid;
    ignore
      (Store.put store ~entity:(S.as_atom entity) ~hash:stored_hash
         ~meta:(meta_of_sexp meta) value : Store.iid)
  | _ -> persist_errorf "malformed instance"

(* Every instance is loaded by now, so one store snapshot serves the
   version edges of all the records. *)
let load_records (ctx : Ddf_exec.Engine.context) sexps =
  let store = Store.snapshot ctx.Ddf_exec.Engine.store in
  sexps
  |> List.map record_of_sexp
  |> List.sort (fun a b -> compare a.rp_rid b.rp_rid)
  |> List.iter (fun p ->
         let r =
           History.add ctx.Ddf_exec.Engine.history store
             ctx.Ddf_exec.Engine.schema ~task_entity:p.rp_task_entity
             ~tool:p.rp_tool ~inputs:p.rp_inputs ~outputs:p.rp_outputs
             ~at:p.rp_at
         in
         if r.History.rid <> p.rp_rid then
           persist_errorf "record ids are not dense (%d loaded as %d)" p.rp_rid
             r.History.rid)

let load_conflicts history sexps =
  sexps
  |> List.map conflict_of_sexp
  |> List.sort compare
  |> List.iter (fun (cid, base, ours, theirs, origin, at, winner) ->
         let c = History.add_conflict history ~base ~ours ~theirs ~origin ~at in
         if c.History.cid <> cid then
           persist_errorf "conflict ids are not dense (%d loaded as %d)" cid
             c.History.cid;
         match winner with
         | None -> ()
         | Some w -> ignore (History.resolve_conflict history cid ~winner:w))

let load_flows schema session sexps =
  List.iter
    (fun sexp ->
      match S.as_list sexp with
      | [ name; flow_text ] ->
        let g = Ddf_graph.Sexp_form.of_string schema (S.as_atom flow_text) in
        Ddf_session.Session.restore_flow session (S.as_atom name) g
      | _ -> persist_errorf "malformed catalog flow")
    sexps

let load_cursor ?registry schema c =
  S.enter c;
  (match S.next c with
  | S.Atom "ddf_workspace" -> ()
  | _ -> persist_errorf "not a ddf workspace file");
  let version = S.as_int (header c "version") in
  if version <> format_version then
    persist_errorf "unsupported format version %d" version;
  (* the journal's seqno: an optional header that plain saves omit *)
  S.enter c;
  let seq, user =
    match S.next c with
    | S.Atom "seq" ->
      let seq = S.as_int (S.next c) in
      if seq < 0 then persist_errorf "negative seq %d" seq;
      S.leave c;
      (Some seq, S.as_atom (header c "user"))
    | S.Atom "user" ->
      let user = S.as_atom (S.next c) in
      S.leave c;
      (None, user)
    | _ -> persist_errorf "expected section seq or user"
  in
  let clock = S.as_int (header c "clock") in
  let ctx = Ddf_exec.Engine.create_context ~user ?registry schema in
  let session = Ddf_session.Session.of_context ctx in
  let history = ctx.Ddf_exec.Engine.history in
  enter_section c "instances";
  each_item c (load_instance ctx.Ddf_exec.Engine.store);
  enter_section c "records";
  load_records ctx (section_items c);
  (* sync conflicts: an optional section, absent in pre-sync files *)
  S.enter c;
  (match S.next c with
  | S.Atom "conflicts" ->
    load_conflicts history (section_items c);
    enter_section c "flows"
  | S.Atom "flows" -> ()
  | _ -> persist_errorf "expected section conflicts or flows");
  (* the clock resumes where it stopped *)
  ctx.Ddf_exec.Engine.clock <- clock;
  load_flows schema session (section_items c);
  S.leave c;
  S.finish c;
  (session, seq)

let parsing f =
  try f () with
  | S.Sexp_error m -> persist_errorf "syntax: %s" m
  | Ddf_graph.Sexp_form.Parse_error m -> persist_errorf "catalog flow: %s" m
  | Ddf_core.Error.Ddf_error e -> persist_errorf "%s" e.Ddf_core.Error.message

let load ?registry schema text =
  fst (parsing (fun () -> load_cursor ?registry schema (S.cursor text)))

let load_file_seq ?registry schema path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parsing (fun () -> load_cursor ?registry schema (S.cursor text))

let load_file ?registry schema path = fst (load_file_seq ?registry schema path)

(* Only the header: [(ddf_workspace (version V) (seq N) ...] puts the
   seqno within the first few dozen bytes. *)
let seq_of_prefix prefix =
  parsing (fun () ->
      let c = S.cursor prefix in
      S.enter c;
      (match S.next c with
      | S.Atom "ddf_workspace" -> ()
      | _ -> persist_errorf "not a ddf workspace file");
      ignore (header c "version" : S.t);
      S.enter c;
      match S.next c with
      | S.Atom "seq" ->
        let seq = S.as_int (S.next c) in
        if not (S.at_close c) then persist_errorf "malformed seq header";
        Some seq
      | _ -> None)
