(* A durable write-ahead log for the design database.

   Layout of a database directory:

     snapshot.ddf   full workspace (Workspace_file format) with a
                    (seq N) header: it holds entries 1..N; optional
     wal.ddf        the live log segment
     wal.F.ddf      closed log segments, each first entry F, kept
                    until a durable snapshot covers them
     cemented/      the cold store of compacted entries (Cement)

   A segment opens with one header line naming the seqno of its first
   frame,

     S1 <first-seqno>\n

   and then holds frames ({!Ddf_cement.Frame}).  Each log frame is

     J1 <payload-bytes> <md5-hex>\n
     <payload>\n

   where <payload> is one s-expression in the flat form of
   [Sexp.to_string ~pretty:false] (older databases hold pretty ones;
   the reader ignores layout):

     (put (iid N) (clock C) (entity E) (hash H) (meta M) (value V))
     (note (iid N) (meta M))
     (record (clock C) R)               ; R as in Workspace_file
     (conflict (clock C) (id N) (base B) (ours O) (theirs T) (origin S) (at A))
     (resolve (clock C) (id N) (winner W))

   The frame header makes entries self-delimiting and the checksum
   makes a torn tail (crash mid-append) detectable: recovery truncates
   the log at the last complete frame and replays the rest.  Entries
   carry the engine's logical clock so replay restores it exactly;
   counters (next iid / next rid) are restored through the stores'
   [tick] accessors.

   Sequence numbers.  Every entry ever journaled has a global sequence
   number, and every file states which ones it holds, atomically with
   its contents: the snapshot's header names the last entry folded
   into it, and the i-th frame of a segment is entry first+i-1.
   Recovery loads the snapshot at P, then applies every segment frame
   above P in order; a missing seqno is a typed error.  Seqnos let a
   replication stream name frames exactly ([entries_since], [apply],
   the frame observer).

   Compaction runs beside the writer.  The writer pins a view, folds
   the frames it covers into cement and rotates the live segment; a
   second domain writes the pinned view as the next snapshot, fsyncs
   and renames it into place, while the writer keeps appending to the
   fresh segment.  The writer then deletes the closed segments the new
   snapshot covers.  A crash anywhere leaves files whose seqnos say
   exactly which entries they hold, so no step needs repair on open. *)

open Ddf_store
open Ddf_history
module S = Ddf_persist.Sexp
module W = Ddf_persist.Workspace_file
module Codec = Ddf_persist.Codec
module Cement = Ddf_cement.Cement
module Frame = Ddf_cement.Frame

exception Journal_error = Ddf_core.Error.Ddf_error
(* Deprecated alias: the journal raises the shared typed error now. *)

module Fault = Ddf_fault.Fault

let journal_errorf ?(code = `Internal) fmt = Ddf_core.Error.errorf code fmt

let m_appends = Ddf_obs.Metrics.counter "journal.appends"
let m_replayed = Ddf_obs.Metrics.counter "journal.replayed_entries"
let m_compactions = Ddf_obs.Metrics.counter "journal.compactions"
let m_torn = Ddf_obs.Metrics.counter "journal.torn_tails"
let m_syncs = Ddf_obs.Metrics.counter "journal.syncs"
let h_batch = Ddf_obs.Metrics.histogram "journal.group_commit_batch"
let h_compact = Ddf_obs.Metrics.histogram "journal.compact_seconds"
let h_stall = Ddf_obs.Metrics.histogram "journal.compact_stall_us"
let m_deferred = Ddf_obs.Metrics.counter "journal.compactions_deferred"
let m_compact_failures = Ddf_obs.Metrics.counter "journal.compact_failures"

(* When is an entry durable?
     [Always] - fsync inside every append: an entry is on disk before
       the caller proceeds.  Safest, one disk flush per write.
     [Group]  - appends only flush to the OS; durability happens at the
       next [sync], which fsyncs once for every entry buffered since
       the previous one (classic WAL group commit).  The design server
       drains its write queue in batches and syncs once per batch, so
       a write is acknowledged only after its batch is durable.
     [Never]  - no fsync at all, for replay-only followers and
       benchmark scaffolding: a machine crash may lose the tail, a
       clean process exit loses nothing. *)
type sync_mode = Always | Group | Never

let sync_mode_of_string = function
  | "always" -> Some Always
  | "group" -> Some Group
  | "none" | "never" -> Some Never
  | _ -> None

let sync_mode_to_string = function
  | Always -> "always"
  | Group -> "group"
  | Never -> "none"

(* A snapshot being written on the second domain. *)
type running = {
  r_seq : int;                       (* the pinned seqno it holds *)
  r_clock : int;
  r_done : bool Atomic.t;            (* set when [r_domain] returns *)
  r_domain : (float, exn) result Domain.t;
}

type t = {
  j_dir : string;
  j_ctx : Ddf_exec.Engine.context;
  j_registry : Ddf_tools.Encapsulation.registry option;
  mutable j_oc : out_channel;        (* wal.ddf, append mode *)
  mutable j_live_first : int;        (* seqno of wal.ddf's first frame *)
  mutable j_closed_segs : (int * string) list;
      (* (first seqno, path) of closed segments, ascending; each ends
         where the next segment (or wal.ddf) starts *)
  mutable j_entries : int;           (* entries since the last compaction began *)
  mutable j_base : int;              (* seq of the installed snapshot *)
  mutable j_snap_clock : int option; (* its clock; [None] without one *)
  mutable j_seq : int;               (* seq of the last entry *)
  mutable j_running : running option;
  j_truncated : int;                 (* torn-tail bytes dropped on open *)
  mutable j_closed : bool;
  mutable j_failed : string option;  (* fail-stop reason, sticky until reopen *)
  mutable j_frame_obs : (int -> string -> unit) option;
  compact_every : int;
  mutable j_sync_mode : sync_mode;
  mutable j_pending : int;           (* entries since the last durability point *)
  j_cement_enabled : bool;
  mutable j_cement : Cement.t option;  (* opened lazily on first fold *)
}

let context j = j.j_ctx
let dir j = j.j_dir
let entries_since_snapshot j = j.j_entries
let truncated_on_open j = j.j_truncated
let seq j = j.j_seq
let base_seq j = j.j_base

let set_frame_observer j f = j.j_frame_obs <- Some f
let clear_frame_observer j = j.j_frame_obs <- None

let sync_mode j = j.j_sync_mode
let set_sync_mode j m = j.j_sync_mode <- m
let failed j = j.j_failed

let m_failures = Ddf_obs.Metrics.counter "journal.failures"

(* A write-path failure (fsync error, short write, injected fault)
   fail-stops the journal: the wal's good prefix stays intact and every
   later append/sync/compact refuses with [`Unavailable].  Continuing
   to append past a failed or torn frame would bury it mid-log, and
   recovery truncates at the FIRST bad frame — acknowledged entries
   after it would silently vanish.  Fail-stop makes that impossible:
   un-acked writes error out, acked ones stay replayable. *)
let fail_stop j e =
  if j.j_failed = None then begin
    j.j_failed <- Some (Printexc.to_string e);
    Ddf_obs.Metrics.incr m_failures
  end;
  raise e

let check_writable j =
  match j.j_failed with
  | Some reason ->
    journal_errorf ~code:`Unavailable "journal failed (fail-stop): %s" reason
  | None -> ()

let snapshot_path dir = Filename.concat dir "snapshot.ddf"
let wal_path dir = Filename.concat dir "wal.ddf"
let closed_path dir first = Filename.concat dir (Printf.sprintf "wal.%d.ddf" first)
let cemented_dir dir = Filename.concat dir "cemented"

let snapshot_file j = snapshot_path j.j_dir

(* ------------------------------------------------------------------ *)
(* Segments                                                            *)
(* ------------------------------------------------------------------ *)

(* A fresh segment whose first frame will be entry [first]. *)
let create_segment path first =
  let oc =
    open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 path
  in
  Printf.fprintf oc "S1 %d\n" first;
  flush oc;
  oc

(* The seqno a segment's header names, leaving [ic] at its first
   frame.  [None] for a header cut short: a crash while the segment was
   being created, before anything could be journaled into it. *)
let read_segment_header path ic =
  match input_line ic with
  | exception End_of_file -> None
  | line when pos_in ic <> String.length line + 1 -> None
  | line -> (
    match String.split_on_char ' ' line with
    | [ "S1"; n ] -> (
      match int_of_string_opt n with
      | Some first when first >= 1 -> Some first
      | Some _ | None -> journal_errorf "%s: bad first seqno %S" path n)
    | _ -> journal_errorf "%s: no segment header (%S)" path line)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* [Frame] owns the J1 format; the wal adds the torn-append fault. *)
let write_frame oc payload =
  (match Fault.check "journal.torn_write" with
  | Some (Fault.Torn k) ->
    (* a crash mid-append: only a prefix of the frame reaches the file *)
    let frame = Frame.to_string payload in
    output_string oc (String.sub frame 0 (min k (String.length frame)));
    flush oc;
    raise (Fault.Injected "journal.torn_write")
  | Some Fault.Fail -> raise (Fault.Injected "journal.torn_write")
  | Some (Fault.Delay _) | None -> Frame.output oc payload);
  flush oc

(* ------------------------------------------------------------------ *)
(* Entry codec                                                         *)
(* ------------------------------------------------------------------ *)

let put_to_sexp ~clock (inst : Ddf_data.value Store.instance) value =
  S.list
    [ S.atom "put"; S.field "iid" [ S.int inst.Store.iid ];
      S.field "clock" [ S.int clock ];
      S.field "entity" [ S.atom inst.Store.entity ];
      S.field "hash" [ S.atom inst.Store.data_hash ];
      S.field "meta" [ W.meta_to_sexp inst.Store.meta ];
      S.field "value" [ Codec.value_to_sexp value ] ]

let note_to_sexp (inst : Ddf_data.value Store.instance) =
  S.list
    [ S.atom "note"; S.field "iid" [ S.int inst.Store.iid ];
      S.field "meta" [ W.meta_to_sexp inst.Store.meta ] ]

let record_to_sexp ~clock r =
  S.list
    [ S.atom "record"; S.field "clock" [ S.int clock ]; W.record_to_sexp r ]

let conflict_to_sexp ~clock (c : History.conflict) =
  S.list
    [ S.atom "conflict"; S.field "clock" [ S.int clock ];
      S.field "id" [ S.int c.History.cid ];
      S.field "base" [ S.int c.History.c_base ];
      S.field "ours" [ S.int c.History.c_ours ];
      S.field "theirs" [ S.int c.History.c_theirs ];
      S.field "origin" [ S.atom c.History.c_origin ];
      S.field "at" [ S.int c.History.c_at ] ]

let resolve_to_sexp ~clock (c : History.conflict) winner =
  S.list
    [ S.atom "resolve"; S.field "clock" [ S.int clock ];
      S.field "id" [ S.int c.History.cid ];
      S.field "winner" [ S.int winner ] ]

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Apply one entry to [ctx].  Ids must come back exactly as
   journaled: an entry out of order means the log is corrupt. *)
let replay_entry ctx payload =
  let sexp =
    try S.of_string payload
    with S.Sexp_error m -> journal_errorf "log entry: %s" m
  in
  let store = ctx.Ddf_exec.Engine.store in
  let history = ctx.Ddf_exec.Engine.history in
  let clock =
    match S.as_list sexp with
    | S.Atom "put" :: fields ->
      let iid = S.as_int (S.one "iid" (S.find_field fields "iid")) in
      let clock = S.as_int (S.one "clock" (S.find_field fields "clock")) in
      let entity = S.as_atom (S.one "entity" (S.find_field fields "entity")) in
      let stored_hash = S.as_atom (S.one "hash" (S.find_field fields "hash")) in
      let meta = W.meta_of_sexp (S.one "meta" (S.find_field fields "meta")) in
      let value =
        try Codec.value_of_sexp (S.one "value" (S.find_field fields "value"))
        with Codec.Codec_error m -> journal_errorf "entry for #%d: %s" iid m
      in
      let hash = Ddf_data.hash value in
      if hash <> stored_hash then
        journal_errorf "instance %d: content hash mismatch (log corrupt?)" iid;
      let got = Store.put store ~entity ~hash ~meta value in
      if got <> iid then
        journal_errorf "log out of order: instance %d replayed as %d" iid got;
      clock
    | S.Atom "note" :: fields ->
      let iid = S.as_int (S.one "iid" (S.find_field fields "iid")) in
      let meta = W.meta_of_sexp (S.one "meta" (S.find_field fields "meta")) in
      if not (Store.Snapshot.mem (Store.snapshot store) iid) then
        journal_errorf "annotation of unknown instance %d" iid;
      Store.annotate store iid ~label:meta.Store.label
        ~comment:meta.Store.comment ~keywords:meta.Store.keywords ();
      ctx.Ddf_exec.Engine.clock
    | [ S.Atom "record"; clock_field; r ] ->
      let clock =
        match clock_field with
        | S.List [ S.Atom "clock"; c ] -> S.as_int c
        | _ -> journal_errorf "malformed record entry"
      in
      let p =
        try W.record_of_sexp r
        with W.Persist_error m -> journal_errorf "record entry: %s" m
      in
      let r =
        History.add history (Store.snapshot store) ctx.Ddf_exec.Engine.schema
          ~task_entity:p.W.rp_task_entity ~tool:p.W.rp_tool
          ~inputs:p.W.rp_inputs ~outputs:p.W.rp_outputs ~at:p.W.rp_at
      in
      if r.History.rid <> p.W.rp_rid then
        journal_errorf "log out of order: record %d replayed as %d" p.W.rp_rid
          r.History.rid;
      clock
    | S.Atom "conflict" :: fields ->
      let int_f name = S.as_int (S.one name (S.find_field fields name)) in
      let cid = int_f "id" in
      let c =
        History.add_conflict history ~base:(int_f "base") ~ours:(int_f "ours")
          ~theirs:(int_f "theirs")
          ~origin:(S.as_atom (S.one "origin" (S.find_field fields "origin")))
          ~at:(int_f "at")
      in
      if c.History.cid <> cid then
        journal_errorf "log out of order: conflict %d replayed as %d" cid
          c.History.cid;
      int_f "clock"
    | S.Atom "resolve" :: fields ->
      let int_f name = S.as_int (S.one name (S.find_field fields name)) in
      ignore
        (History.resolve_conflict history (int_f "id") ~winner:(int_f "winner"));
      int_f "clock"
    | _ -> journal_errorf "unknown log entry kind"
  in
  ctx.Ddf_exec.Engine.clock <- max ctx.Ddf_exec.Engine.clock clock

(* ------------------------------------------------------------------ *)
(* Observers: the live write path                                      *)
(* ------------------------------------------------------------------ *)

(* One durability point: fsync the wal and record how many entries the
   flush covered (the group-commit batch size). *)
let fsync_now j =
  let t0 = Unix.gettimeofday () in
  let batch = j.j_pending in
  flush j.j_oc;
  Fault.fire "journal.fsync";
  Unix.fsync (Unix.descr_of_out_channel j.j_oc);
  Ddf_obs.Metrics.incr m_syncs;
  if j.j_pending > 0 then
    Ddf_obs.Metrics.observe h_batch (float_of_int j.j_pending);
  j.j_pending <- 0;
  (* inherits the writer thread's current span, so the fsync shows up
     inside the write job (or batch-sync span) that forced it *)
  if Ddf_obs.Obs.enabled () then
    Ddf_obs.Obs.complete ~cat:"journal"
      ~dur_us:((Unix.gettimeofday () -. t0) *. 1e6)
      ~attrs:[ ("batch", Ddf_obs.Obs.Int batch) ]
      "journal.fsync"

let append j payload =
  if not j.j_closed then begin
    check_writable j;
    (match
       write_frame j.j_oc payload;
       j.j_entries <- j.j_entries + 1;
       j.j_seq <- j.j_seq + 1;
       j.j_pending <- j.j_pending + 1;
       Ddf_obs.Metrics.incr m_appends;
       if j.j_sync_mode = Always then fsync_now j
     with
    | () -> ()
    | exception e -> fail_stop j e);
    (* written first, then shipped: the frame observer (the replication
       fan-out) sees an entry only after the local wal has it — on disk
       in [Always] mode, flushed to the OS in [Group]/[Never] (the
       entry becomes durable at the batch's [sync]) *)
    match j.j_frame_obs with
    | Some f -> f j.j_seq payload
    | None -> ()
  end

let attach j =
  let ctx = j.j_ctx in
  let append_flat entry = append j (S.to_string ~pretty:false entry) in
  Store.set_observer ctx.Ddf_exec.Engine.store (function
    | Store.Put (inst, value) ->
      append_flat (put_to_sexp ~clock:ctx.Ddf_exec.Engine.clock inst value)
    | Store.Annotated inst -> append_flat (note_to_sexp inst));
  History.set_observer ctx.Ddf_exec.Engine.history (fun r ->
      append_flat (record_to_sexp ~clock:ctx.Ddf_exec.Engine.clock r));
  History.set_conflict_observer ctx.Ddf_exec.Engine.history (fun ev ->
      let clock = ctx.Ddf_exec.Engine.clock in
      match ev with
      | History.Conflict_added c -> append_flat (conflict_to_sexp ~clock c)
      | History.Conflict_resolved c ->
        let winner = Option.get c.History.c_winner in
        append_flat (resolve_to_sexp ~clock c winner))

let detach j =
  Store.clear_observer j.j_ctx.Ddf_exec.Engine.store;
  History.clear_observer j.j_ctx.Ddf_exec.Engine.history;
  History.clear_conflict_observer j.j_ctx.Ddf_exec.Engine.history

(* ------------------------------------------------------------------ *)
(* Open / close / compaction                                           *)
(* ------------------------------------------------------------------ *)

let fsync_oc oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Directory fsync: a rename is only durable once the directory entry
   itself reaches disk — without this, a power cut after [compact] or
   [reset_to_snapshot_file] can resurrect the pre-rename snapshot/base.
   Real I/O errors are swallowed (the fsync is belt-and-braces on
   filesystems that journal renames anyway), but the
   [journal.dir_fsync] crash point fires through so the fault sweep
   can kill the process exactly here. *)
let fsync_dir dir =
  Fault.fire "journal.dir_fsync";
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let sync j =
  if not j.j_closed then begin
    check_writable j;
    match
      flush j.j_oc;
      if j.j_pending > 0 then
        match j.j_sync_mode with
        | Never ->
          j.j_pending <- 0 (* no durability point, just bound the count *)
        | Always | Group -> fsync_now j
    with
    | () -> ()
    | exception e -> fail_stop j e
  end

(* Read the segment at [path]: [f seqno payload] for each frame in
   order, seqnos counted from its header, while [f] returns [true].
   Returns the header's first seqno ([None] for a segment cut short at
   creation, with nothing in it), how many frames were read, and — if
   a torn frame stopped the read — the offset where the complete
   frames end. *)
let scan_segment path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  match read_segment_header path ic with
  | None -> (None, 0, None)
  | Some first ->
    let rec go seqno =
      match Frame.input ic with
      | None -> (seqno - first, None)
      | Some payload ->
        if f seqno payload then go (seqno + 1) else (seqno - first + 1, None)
      | exception Frame.Torn at -> (seqno - first, Some at)
    in
    let count, torn = go first in
    (Some first, count, torn)

let is_segment_name name =
  name = "wal.ddf"
  ||
  match String.split_on_char '.' name with
  | [ "wal"; n; "ddf" ] -> int_of_string_opt n <> None
  | _ -> false

(* Recovery: replay every segment frame above [from] (the snapshot's
   seqno) into [ctx], in seqno order, truncating torn tails.  Returns
   the last seqno, the torn bytes dropped and each segment as
   (first, path, frames).  A segment cut short at creation held
   nothing and is removed; a seqno that no file holds is a typed
   error. *)
let replay_segments ctx dir ~from =
  let heads =
    Sys.readdir dir |> Array.to_list
    |> List.filter is_segment_name
    |> List.filter_map (fun name ->
           let path = Filename.concat dir name in
           let ic = open_in_bin path in
           let first =
             Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
                 read_segment_header path ic)
           in
           match first with
           | Some first -> Some (first, path)
           | None ->
             Sys.remove path;
             None)
    |> List.sort compare
  in
  let last = ref from and torn = ref 0 in
  let segs =
    List.map
      (fun (first, path) ->
        if first > !last + 1 then
          journal_errorf "journal gap: entries %d..%d are missing (%s starts at %d)"
            (!last + 1) (first - 1) (Filename.basename path) first;
        let _, count, torn_at =
          scan_segment path (fun seqno payload ->
              if seqno > !last then begin
                replay_entry ctx payload;
                last := seqno;
                Ddf_obs.Metrics.incr m_replayed
              end;
              true)
        in
        Option.iter
          (fun good_end ->
            Ddf_obs.Metrics.incr m_torn;
            torn := !torn + ((Unix.stat path).Unix.st_size - good_end);
            Unix.truncate path good_end)
          torn_at;
        (first, path, count))
      heads
  in
  (!last, !torn, segs)

(* ------------------------------------------------------------------ *)
(* Tiered cold storage (the cement store)                              *)
(* ------------------------------------------------------------------ *)

(* The cement handle, opened lazily: a database that never compacts
   never creates [cemented/].  Once it exists it is reopened eagerly
   by [open_] so cold reads work before the first fold. *)
let cement_store j =
  match j.j_cement with
  | Some c -> c
  | None ->
    let c = Cement.open_ ~dir:(cemented_dir j.j_dir) in
    j.j_cement <- Some c;
    c

let cement_stats j =
  match j.j_cement with
  | None -> None
  | Some c ->
    Some
      (Cement.segment_count c, Cement.total_bytes c, Cement.first_seq c,
       Cement.last_seq c)

(* A cemented frame payload by seqno — the cold half of the log. *)
let cold_frame j seqno =
  match j.j_cement with None -> None | Some c -> Cement.read c seqno

(* The store's cold-load path: re-read an evicted payload from the
   cemented put frame that installed it.  The frame checksum was
   verified by [Cement]; the content hash is re-verified here exactly
   like live replay does. *)
let cold_put_value j iid =
  match j.j_cement with
  | None -> None
  | Some c -> (
    match Cement.find_put c ~iid with
    | None -> None
    | Some payload -> (
      let sexp =
        try S.of_string payload
        with S.Sexp_error m -> journal_errorf "cemented entry: %s" m
      in
      match S.as_list sexp with
      | S.Atom "put" :: fields ->
        let stored_hash =
          S.as_atom (S.one "hash" (S.find_field fields "hash"))
        in
        let value =
          try Codec.value_of_sexp (S.one "value" (S.find_field fields "value"))
          with Codec.Codec_error m ->
            journal_errorf "cemented entry for #%d: %s" iid m
        in
        if Ddf_data.hash value <> stored_hash then
          journal_errorf "cemented instance %d: content hash mismatch" iid;
        Some value
      | _ -> None))

let install_cold_loader j =
  if j.j_cement_enabled then
    Store.set_cold_loader j.j_ctx.Ddf_exec.Engine.store (cold_put_value j)

(* Evict resident payloads whose every owning instance can be cold-
   loaded back from cement.  Payloads are shared by content hash, so a
   hash is only droppable when ALL its owners' installing puts are
   cemented; one [Store.evict] per hash drops it for every owner.
   Returns the number of payloads evicted. *)
let evict_cold j =
  match j.j_cement with
  | None -> 0
  | Some c ->
    let store = j.j_ctx.Ddf_exec.Engine.store in
    let snap = Store.snapshot store in
    let cold = Hashtbl.create 256 in
    Cement.iter_puts c (fun iid -> Hashtbl.replace cold iid ());
    let owners = Hashtbl.create 256 in
    (* hash -> (droppable so far, representative iid) *)
    List.iter
      (fun iid ->
        let h = Store.Snapshot.hash_of snap iid in
        let ok = Hashtbl.mem cold iid in
        match Hashtbl.find_opt owners h with
        | None -> Hashtbl.replace owners h (ok, iid)
        | Some (all_ok, rep) -> Hashtbl.replace owners h (all_ok && ok, rep))
      (Store.Snapshot.all_instances snap);
    let n = ref 0 in
    Hashtbl.iter
      (fun _h (all_ok, rep) ->
        if all_ok && Store.Snapshot.payload_resident snap rep
           && Store.evict store rep
        then incr n)
      owners;
    !n

(* Delete the closed segments a durable snapshot covers.  Each one's
   frames reached cement before it was closed, so cement keeps the
   history they held. *)
let drop_covered_segments j =
  let rec go = function
    | (_, path) :: rest
      when (match rest with (next, _) :: _ -> next | [] -> j.j_live_first) - 1
           <= j.j_base ->
      Fault.fire "journal.segment_delete";
      Sys.remove path;
      j.j_closed_segs <- rest;
      go rest
    | _ -> ()
  in
  go j.j_closed_segs

let open_ ?registry ?(compact_every = 10_000) ?(sync_mode = Group)
    ?(cement = true) ~dir schema =
  if compact_every < 1 then journal_errorf "compact_every must be positive";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if not (Sys.is_directory dir) then journal_errorf "%s is not a directory" dir;
  let ctx, snap_seq, snap_clock =
    if Sys.file_exists (snapshot_path dir) then
      let session, seq =
        try W.load_file_seq ?registry schema (snapshot_path dir)
        with W.Persist_error m -> journal_errorf "snapshot: %s" m
      in
      let ctx = Ddf_session.Session.context session in
      (ctx, Option.value seq ~default:0, Some ctx.Ddf_exec.Engine.clock)
    else (Ddf_exec.Engine.create_context ?registry schema, 0, None)
  in
  (* a snapshot write that never reached its rename *)
  (try Sys.remove (snapshot_path dir ^ ".tmp") with Sys_error _ -> ());
  let seq, torn, segs = replay_segments ctx dir ~from:snap_seq in
  (* counters were restored by dense re-insertion; assert the ticks
     agree with the contents before trusting the database *)
  let store = Store.snapshot ctx.Ddf_exec.Engine.store in
  if Store.Snapshot.(tick store <> instance_count store + 1) then
    journal_errorf "instance counter %d does not match %d instances"
      (Store.Snapshot.tick store)
      (Store.Snapshot.instance_count store);
  let history = History.snapshot ctx.Ddf_exec.Engine.history in
  if History.Snapshot.(tick history <> size history + 1) then
    journal_errorf "record counter disagrees with the history size";
  (* wal.ddf stays live when it ends at [seq]; otherwise the snapshot
     covers it and a fresh one starts after [seq] *)
  let live = wal_path dir in
  let live_first, closed =
    match List.rev segs with
    | (first, path, count) :: older when path = live && first + count - 1 = seq
      ->
      (Some first, List.rev older)
    | _ ->
      List.iter
        (fun (first, path, count) ->
          if path = live && first + count - 1 > snap_seq then
            journal_errorf "wal.ddf is not the newest segment")
        segs;
      (None, List.filter (fun (_, path, _) -> path <> live) segs)
  in
  let oc, live_first =
    match live_first with
    | Some first -> (open_out_gen [ Open_append; Open_binary ] 0o644 live, first)
    | None -> (create_segment live (seq + 1), seq + 1)
  in
  let j =
    { j_dir = dir; j_ctx = ctx; j_registry = registry; j_oc = oc;
      j_live_first = live_first;
      j_closed_segs = List.map (fun (first, path, _) -> (first, path)) closed;
      j_entries = seq - live_first + 1; j_base = snap_seq;
      j_snap_clock = snap_clock; j_seq = seq; j_running = None;
      j_truncated = torn; j_closed = false; j_failed = None;
      j_frame_obs = None; compact_every;
      j_sync_mode = sync_mode; j_pending = 0;
      j_cement_enabled = cement; j_cement = None }
  in
  (* reopen an existing cement store eagerly so cold reads (and torn-
     tail recovery on its newest segment) happen now, not mid-query *)
  if cement && Sys.file_exists (cemented_dir dir) then
    ignore (cement_store j);
  drop_covered_segments j;
  install_cold_loader j;
  attach j;
  j

(* Every frame with seqno > [after], ascending across the closed
   segments and wal.ddf, while [f] returns [true].  Callers exclude
   writers, so each segment ends at its last complete frame. *)
let iter_frames j ~after f =
  flush j.j_oc;
  let rec go = function
    | [] -> ()
    | (_, path) :: rest ->
      let next = match rest with (n, _) :: _ -> n | [] -> j.j_seq + 1 in
      if next - 1 <= after then go rest
      else begin
        let stopped = ref false in
        let _, _, torn =
          scan_segment path (fun seqno payload ->
              seqno <= after
              || f seqno payload
              || (stopped := true;
                  false))
        in
        Option.iter
          (fun at -> journal_errorf "%s torn mid-read at %d" path at)
          torn;
        if not !stopped then go rest
      end
  in
  go (j.j_closed_segs @ [ (j.j_live_first, wal_path j.j_dir) ])

(* Entries with seqno > [since], as (seqno, payload) ascending. *)
let wal_tail j since =
  let out = ref [] in
  iter_frames j ~after:since (fun n payload ->
      out := (n, payload) :: !out;
      true);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

(* Fold every frame above the cement watermark into cement: the frames
   the next snapshot covers move to cold storage instead of vanishing.
   [Cement.fold] is durable on return and skips already-cemented
   seqnos, so a retry after any failure is idempotent. *)
let fold_into_cement j =
  if j.j_cement_enabled && j.j_seq > j.j_base then begin
    let c = cement_store j in
    (* a cold store that stops short of the current base (cement was
       disabled for a while, or the directory was copied from another
       line) cannot be extended contiguously: start over *)
    if Cement.last_seq c <> 0 && Cement.last_seq c < j.j_base then
      Cement.clear c;
    let from = max j.j_base (Cement.last_seq c) in
    if j.j_seq > from then Cement.fold c ~first:(from + 1) (wal_tail j from)
  end

(* Close wal.ddf as wal.F.ddf and start a fresh wal.ddf after the last
   entry.  The closing segment is fsynced first: its entries may belong
   to a batch whose [sync] will only cover the fresh segment.  One
   directory fsync pins the rename and the new file before anything is
   journaled into it. *)
let rotate j =
  Fault.fire "journal.rotate";
  (match j.j_sync_mode with
  | Never -> flush j.j_oc
  | Always | Group -> if j.j_pending > 0 then fsync_now j);
  close_out j.j_oc;
  let closed = closed_path j.j_dir j.j_live_first in
  Sys.rename (wal_path j.j_dir) closed;
  j.j_closed_segs <- j.j_closed_segs @ [ (j.j_live_first, closed) ];
  j.j_oc <- create_segment (wal_path j.j_dir) (j.j_seq + 1);
  j.j_live_first <- j.j_seq + 1;
  j.j_entries <- 0;
  fsync_dir j.j_dir

(* The writer's share of a compaction: pin the state at the current
   seqno, fold the frames it covers into cement, and rotate the live
   segment so that the snapshot writer and the writer never share a
   file.  Returns the image with its seqno and clock.  A fold failure
   changes nothing; a rotation failure fail-stops the journal. *)
let begin_compaction j =
  let t0 = Unix.gettimeofday () in
  let seq = j.j_seq and clock = j.j_ctx.Ddf_exec.Engine.clock in
  let img = W.image ~seq (Ddf_session.Session.of_context j.j_ctx) in
  fold_into_cement j;
  if j.j_entries > 0 then (try rotate j with e -> fail_stop j e);
  Ddf_obs.Metrics.incr m_compactions;
  Ddf_obs.Metrics.observe h_stall ((Unix.gettimeofday () -. t0) *. 1e6);
  (img, seq, clock)

(* Write [img] as the next snapshot.ddf: a tmp file, fsync, rename,
   one directory fsync.  Runs on the second domain (inline for
   {!compact}) and touches nothing of the journal but its directory.
   On failure the tmp file goes and the previous snapshot stays. *)
let write_snapshot ~dir ~resident_only img =
  let t0 = Unix.gettimeofday () in
  let path = snapshot_path dir in
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    (try
       Fault.fire "journal.snapshot_write";
       W.output_image ~resident_only img oc;
       fsync_oc oc;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Fault.fire "journal.snapshot_rename";
    Sys.rename tmp path;
    fsync_dir dir
  with
  | () -> Ok (Unix.gettimeofday () -. t0)
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error e

(* Account for a finished snapshot write, on the writer.  Once the
   snapshot at [seq] is durable the closed segments it covers go; a
   failure leaves the previous snapshot and every segment in place,
   for the next compaction to retry. *)
let settle j ~seq ~clock result =
  let failed e =
    Ddf_obs.Metrics.incr m_compact_failures;
    Error e
  in
  match result with
  | Error e -> failed e
  | Ok seconds -> (
    Ddf_obs.Metrics.observe h_compact seconds;
    j.j_base <- seq;
    j.j_snap_clock <- Some clock;
    match drop_covered_segments j with
    | () -> Ok ()
    | exception e -> failed e)

(* Settle the background compaction if it has finished, or with
   [~wait:true] once it has. *)
let reap ?(wait = false) j =
  match j.j_running with
  | Some r when wait || Atomic.get r.r_done ->
    j.j_running <- None;
    settle j ~seq:r.r_seq ~clock:r.r_clock
      (try Domain.join r.r_domain with e -> Error e)
  | Some _ | None -> Ok ()

let compact j =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  check_writable j;
  ignore (reap ~wait:true j : (unit, exn) result);
  (* nothing journaled and the clock unmoved since the installed
     snapshot: rewriting it would produce the same bytes *)
  if
    not (j.j_base = j.j_seq && j.j_snap_clock = Some j.j_ctx.Ddf_exec.Engine.clock)
  then begin
    let img, seq, clock = begin_compaction j in
    match
      settle j ~seq ~clock
        (write_snapshot ~dir:j.j_dir ~resident_only:false img)
    with
    | Ok () -> ()
    | Error e -> raise e
  end

let maybe_compact j =
  if j.j_closed || j.j_failed <> None then false
  else begin
    ignore (reap j : (unit, exn) result);
    if j.j_entries < j.compact_every then false
    else if j.j_running <> None then begin
      Ddf_obs.Metrics.incr m_deferred;
      false
    end
    else
      match begin_compaction j with
      | exception _ ->
        Ddf_obs.Metrics.incr m_compact_failures;
        false
      | img, seq, clock ->
        let dir = j.j_dir and r_done = Atomic.make false in
        (* the second domain must not reach the store's cold loader
           (cement is the writer's): a payload that is not resident
           fails this compaction instead *)
        (match
           Domain.spawn (fun () ->
               let r = write_snapshot ~dir ~resident_only:true img in
               Atomic.set r_done true;
               r)
         with
        | d ->
          j.j_running <-
            Some { r_seq = seq; r_clock = clock; r_done; r_domain = d }
        | exception _ ->
          ignore
            (settle j ~seq ~clock (write_snapshot ~dir ~resident_only:false img)
              : (unit, exn) result));
        true
  end

let close j =
  if not j.j_closed then begin
    ignore (reap ~wait:true j : (unit, exn) result);
    detach j;
    (* best effort: a failed (or failing) journal still closes — its
       good prefix is already safe, and close is called from shutdown
       paths that must stay idempotent *)
    (match
       match j.j_sync_mode with
       | Never -> flush j.j_oc
       | Always | Group -> if j.j_failed = None then fsync_now j else flush j.j_oc
     with
    | () -> ()
    | exception _ -> j.j_failed <- Some "fsync failed during close");
    close_out_noerr j.j_oc;
    (match j.j_cement with Some c -> Cement.close c | None -> ());
    j.j_closed <- true
  end

(* Open snapshot.ddf and read the seqno its header names.  The
   descriptor pins that inode, so the pair stays consistent even when
   a compaction renames a newer snapshot into place a moment later. *)
let pin_snapshot j =
  let fd = Unix.openfile (snapshot_file j) [ Unix.O_RDONLY ] 0 in
  match
    let buf = Bytes.create 256 in
    let rec fill n =
      if n = Bytes.length buf then n
      else
        match Unix.read fd buf n (Bytes.length buf - n) with
        | 0 -> n
        | k -> fill (n + k)
    in
    let n = fill 0 in
    ignore (Unix.lseek fd 0 Unix.SEEK_SET : int);
    W.seq_of_prefix (Bytes.sub_string buf 0 n)
  with
  | Some seq -> (seq, fd)
  | None ->
    Unix.close fd;
    journal_errorf "snapshot.ddf names no seqno"
  | exception e ->
    Unix.close fd;
    (match e with
    | W.Persist_error m -> journal_errorf "snapshot: %s" m
    | e -> raise e)

(* ------------------------------------------------------------------ *)
(* Replication: tailing, follower application, snapshot resync         *)
(* ------------------------------------------------------------------ *)

let m_applied = Ddf_obs.Metrics.counter "journal.replicated_applies"
let m_resyncs = Ddf_obs.Metrics.counter "journal.snapshot_resyncs"

type tail =
  | Frames of (int * string) list
  | Snapshot_needed

(* Entries with seqno > [since], read back from the on-disk segments.
   Callers must exclude writers (the server reads the tail from its
   single-writer loop), so each segment ends at its last complete
   frame. *)
let entries_since j since =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  if since < j.j_base then Snapshot_needed
  else if since >= j.j_seq then Frames []
  else Frames (wal_tail j since)

(* Anti-entropy support: the digest a peer compares against, and exact
   frame extraction by seqno window.  Both read the wal back from disk
   (writers excluded, like [entries_since]); frames are hashed with the
   same md5 the frame header carries, so a digest mismatch means the
   histories genuinely diverge at that seqno. *)

let frame_digest payload = Digest.to_hex (Digest.string payload)

(* (seqno, md5) for every segment frame above the snapshot, ascending
   — entries base+1..seq. *)
let digest j =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  let out = ref [] in
  iter_frames j ~after:j.j_base (fun n payload ->
      out := (n, frame_digest payload) :: !out;
      true);
  List.rev !out

(* At most [limit] frames with seqno > [after], as (seqno, md5,
   payload) ascending.  Frames below the snapshot base are served from
   the cement store when it covers them (positioned reads, no replay);
   asking below both is a typed conflict: those frames are gone. *)
let rec frames j ~after ~limit =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  if limit < 0 then journal_errorf ~code:`Invalid "negative frame limit";
  if after < j.j_base then begin
    let served_cold =
      match j.j_cement with
      | Some c
        when Cement.first_seq c <> 0 && after + 1 >= Cement.first_seq c ->
        let out = ref [] in
        let taken = ref 0 in
        Cement.iter_range c ~from:(after + 1)
          ~upto:(min j.j_base (after + limit))
          (fun seqno payload ->
            if !taken < limit then begin
              incr taken;
              out := (seqno, frame_digest payload, payload) :: !out
            end);
        Some (List.rev !out)
      | Some _ | None -> None
    in
    match served_cold with
    | None ->
      journal_errorf ~code:`Conflict
        "frames before %d were compacted away (asked for > %d)" j.j_base after
    | Some cold ->
      let got = List.length cold in
      if got < limit then
        cold @ frames j ~after:j.j_base ~limit:(limit - got)
      else cold
  end
  else if after >= j.j_seq || limit = 0 then []
  else begin
    let out = ref [] and taken = ref 0 in
    iter_frames j ~after (fun n payload ->
        out := (n, frame_digest payload, payload) :: !out;
        incr taken;
        !taken < limit);
    List.rev !out
  end

(* A stable workspace identity for the sync fabric, minted on first
   use and persisted next to the wal.  A cloned database directory
   must shed [wsid.ddf] (like a machine-id) so the clone syncs as its
   own peer. *)
let wsid_path dir = Filename.concat dir "wsid.ddf"

let wsid j =
  let path = wsid_path j.j_dir in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match String.split_on_char ' ' (String.trim line) with
    | [ "W1"; id ] when id <> "" -> id
    | _ -> journal_errorf "wsid.ddf: malformed (%S)" line
  end
  else begin
    let id =
      Digest.to_hex
        (Digest.string
           (Printf.sprintf "%s|%d|%f|%d" j.j_dir (Unix.getpid ())
              (Unix.gettimeofday ()) (Random.bits ())))
    in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try
       Printf.fprintf oc "W1 %s\n" id;
       flush oc;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path;
    id
  end

(* Apply one replicated frame: replay the payload into the context and
   append the identical bytes to the local wal, so a follower's journal
   is byte-for-byte the primary's log suffix and the follower is itself
   crash-safe (and promotable).  The payload's integrity was already
   checked frame-by-frame in transit; [replay_entry] re-verifies the
   content hash and dense-id ordering on application.

   Note the clock is pre-set from the payload before the entry is
   applied, and observers stay detached during application: the bytes
   written locally are the primary's bytes, not a re-encoding (a
   re-encoding after [Store.put] would stamp a stale clock). *)
let apply j ~seq payload =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  check_writable j;
  if seq <> j.j_seq + 1 then
    journal_errorf ~code:`Conflict "replication gap: expected entry %d, got %d"
      (j.j_seq + 1) seq;
  detach j;
  (try replay_entry j.j_ctx payload
   with e ->
     attach j;
     raise e);
  attach j;
  (match
     write_frame j.j_oc payload;
     j.j_entries <- j.j_entries + 1;
     j.j_seq <- seq;
     j.j_pending <- j.j_pending + 1;
     if j.j_sync_mode = Always then fsync_now j
   with
  | () -> ()
  | exception e -> fail_stop j e);
  Ddf_obs.Metrics.incr m_applied;
  match j.j_frame_obs with
  | Some f -> f j.j_seq payload
  | None -> ()

let m_stream_resyncs = Ddf_obs.Metrics.counter "journal.snapshot_stream_resyncs"

(* Move [src] over [dst] — rename when the spool shares the
   filesystem, copy-then-rename when it does not. *)
let rename_or_copy src dst =
  try Sys.rename src dst
  with Sys_error _ ->
    let ic = open_in_bin src in
    let tmp = dst ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try
       let buf = Bytes.create 65536 in
       let rec loop () =
         let n = input ic buf 0 (Bytes.length buf) in
         if n > 0 then begin
           output oc buf 0 n;
           loop ()
         end
       in
       loop ();
       fsync_oc oc;
       close_out oc;
       close_in ic
     with e ->
       close_out_noerr oc;
       close_in_noerr ic;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp dst;
    try Sys.remove src with Sys_error _ -> ()

(* Replace the whole database with a primary's snapshot (the catch-up
   path when our seqno predates the primary's oldest wal entry, e.g.
   after a primary compaction).  [path] holds a workspace save spooled
   to disk in bounded chunks (a streamed bootstrap), so the snapshot
   bytes never cross the wire as one in-memory string, and the load
   installs them one instance at a time.  The file is loaded FIRST — a
   malformed stream must not clobber the database.  The old segments
   go newest first, before the snapshot is renamed into place: a crash
   in between reopens the old snapshot with a prefix of its segments,
   a prefix of the history the primary tops up again. *)
let reset_to_snapshot_file j ~seq path =
  if j.j_closed then journal_errorf ~code:`Unavailable "journal is closed";
  ignore (reap ~wait:true j : (unit, exn) result);
  Ddf_obs.Metrics.incr m_resyncs;
  Ddf_obs.Metrics.incr m_stream_resyncs;
  let session, file_seq =
    try
      W.load_file_seq ?registry:j.j_registry j.j_ctx.Ddf_exec.Engine.schema path
    with W.Persist_error m -> journal_errorf "replication snapshot: %s" m
  in
  if file_seq <> Some seq then
    journal_errorf ~code:`Invalid "replication snapshot for entry %d holds %s"
      seq
      (match file_seq with
      | Some s -> Printf.sprintf "entry %d" s
      | None -> "no seqno");
  let fresh = Ddf_session.Session.context session in
  detach j;
  (match
     (match Unix.openfile path [ Unix.O_RDONLY ] 0 with
     | fd ->
       (try Unix.fsync fd with Unix.Unix_error _ -> ());
       Unix.close fd
     | exception Unix.Unix_error _ -> ());
     close_out j.j_oc;
     List.iter
       (fun (_, segment) ->
         Fault.fire "journal.segment_delete";
         Sys.remove segment)
       (List.rev (j.j_closed_segs @ [ (j.j_live_first, wal_path j.j_dir) ]));
     j.j_closed_segs <- [];
     rename_or_copy path (snapshot_path j.j_dir);
     j.j_oc <- create_segment (wal_path j.j_dir) (seq + 1);
     (* one directory fsync pins the deletions, the rename and the new
        segment *)
     fsync_dir j.j_dir
   with
  | () -> ()
  | exception e ->
    attach j;
    fail_stop j e);
  j.j_ctx.Ddf_exec.Engine.store <- fresh.Ddf_exec.Engine.store;
  j.j_ctx.Ddf_exec.Engine.history <- fresh.Ddf_exec.Engine.history;
  j.j_ctx.Ddf_exec.Engine.clock <- fresh.Ddf_exec.Engine.clock;
  j.j_live_first <- seq + 1;
  j.j_entries <- 0;
  j.j_base <- seq;
  j.j_snap_clock <- Some fresh.Ddf_exec.Engine.clock;
  j.j_seq <- seq;
  j.j_pending <- 0;
  (* the resync rebased the seqno line: the cemented history belongs
     to the pre-reset database and can never be extended contiguously *)
  (match j.j_cement with Some c -> Cement.clear c | None -> ());
  (* the fresh store needs the cold loader re-wired (it replaced the
     one the loader was installed on) *)
  install_cold_loader j;
  attach j
