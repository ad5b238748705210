(* In-process replay for the traced run: the same generated requests,
   evaluated single-threaded against [Journal.open_]'s context and one
   [Session] per connection, with a span around each call into a layer's
   public functions.  The evaluation mirrors the server's: decode,
   execute, then for a mutation [Journal.sync] (and compaction every
   512 entries, the server's default), then encode. *)

open Ddf

type t = {
  j : Journal.t;
  ctx : Engine.context;
  mutable examined : int;  (* instances of the filtered entities, over browses *)
  mutable returned : int;  (* rows returned by those browses *)
}

let span = Span.with_span
let pin t = span "exec.pin" (fun () -> Engine.pin t.ctx)

let nodes session nids =
  let g = Session.current_flow session in
  List.map (fun n -> (n, Task_graph.entity_of g n)) nids

let rec eval t session (req : Wire.request) : Wire.response =
  let ctx = t.ctx in
  match req with
  | Wire.Batch rs ->
    Wire.Ok_batch
      (List.map
         (fun r -> try eval t session r with e -> Wire.Error (Error.of_exn e))
         rs)
  | Wire.Stat ->
    let v = pin t in
    Wire.Ok_stat
      { Wire.st_role = "primary"; st_seq = Journal.seq t.j; st_clock = ctx.Engine.clock;
        st_instances = Store.Snapshot.instance_count v.Engine.v_store;
        st_records = History.Snapshot.size v.Engine.v_history;
        st_store_tick = Store.Snapshot.tick v.Engine.v_store;
        st_history_tick = History.Snapshot.tick v.Engine.v_history;
        st_uptime_s = 0. }
  | Wire.Browse f ->
    let v = pin t in
    let snap = v.Engine.v_store in
    let iids = span "store.browse" (fun () -> Store.Snapshot.browse snap f) in
    t.examined <-
      t.examined
      + (match f.Store.f_entities with
        | Some es ->
          List.fold_left
            (fun n e -> n + List.length (Store.Snapshot.instances_of_entity snap e))
            0 es
        | None -> Store.Snapshot.instance_count snap);
    t.returned <- t.returned + List.length iids;
    Wire.Ok_rows
      (List.map
         (fun iid ->
           { Wire.row_iid = iid; row_entity = Store.Snapshot.entity_of snap iid;
             row_meta = Store.Snapshot.meta_of snap iid })
         iids)
  | Wire.Install { entity; label; keywords; value } ->
    let value = Codec.value_of_sexp value in
    Wire.Ok_int (span "exec.install" (fun () -> Engine.install ctx ~entity ~label ~keywords value))
  | Wire.Annotate { iid; label; comment; keywords } ->
    span "store.annotate" (fun () ->
        Store.annotate ctx.Engine.store iid ?label ?comment ?keywords ());
    Wire.Ok_unit
  | Wire.Start_goal e ->
    Wire.Ok_int (span "session.build" (fun () -> Session.start_goal_based session e))
  | Wire.Expand nid ->
    Wire.Ok_nodes (span "session.build" (fun () -> nodes session (Session.expand session nid)))
  | Wire.Select (nid, iids) ->
    span "session.build" (fun () -> Session.select session nid iids);
    Wire.Ok_unit
  | Wire.Leaves ->
    Wire.Ok_nodes
      (span "session.build" (fun () ->
           nodes session (Task_graph.leaves (Session.current_flow session))))
  | Wire.Run nid -> Wire.Ok_ints (span "exec.run" (fun () -> Session.run session nid))
  | Wire.Trace iid ->
    let view = pin t in
    let g, _, binding = span "history.trace" (fun () -> Session.history_of ~view session iid) in
    Wire.Ok_text
      (Printf.sprintf "%s(%d instances in the derivation)\n" (Task_graph.to_ascii g)
         (List.length binding))
  | Wire.Uses iid ->
    let view = pin t in
    Wire.Ok_ints (span "history.uses" (fun () -> Session.uses_of ~view session iid))
  | Wire.Refresh iid ->
    let r = span "exec.refresh" (fun () -> Consistency.refresh ctx iid) in
    Wire.Ok_refresh
      { fresh = r.Consistency.fresh_instance; reran = r.Consistency.reran;
        reused = r.Consistency.reused }
  | r -> Wire.Error (Error.make `Invalid ("not replayed: " ^ Wire.request_name r))

(* The connection function of one replayed client. *)
let call t ~user =
  let session = Session.of_context t.ctx in
  fun (req : Wire.request) ->
    let bytes = Wire.request_to_binary_string req in
    span ("request." ^ Wire.request_name req) @@ fun () ->
    let req = span "wire.decode" (fun () -> Wire.request_of_binary_string bytes) in
    t.ctx.Engine.user <- user;
    let resp = try eval t session req with e -> Wire.Error (Error.of_exn e) in
    if Wire.is_mutation req then begin
      span "journal.sync" (fun () -> Journal.sync t.j);
      let t0 = Span.now_us () in
      if Journal.maybe_compact t.j then
        Span.add "journal.compact" ~start_us:t0 ~end_us:(Span.now_us ())
    end;
    ignore (span "wire.encode" (fun () -> Wire.response_to_binary_string resp));
    resp

let open_ ~dir =
  let t0 = Unix.gettimeofday () in
  let j = Journal.open_ ~compact_every:512 ~dir Load.schema in
  let open_s = Unix.gettimeofday () -. t0 in
  ({ j; ctx = Journal.context j; examined = 0; returned = 0 }, open_s)
