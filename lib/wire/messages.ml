(* What travels on the design-server wire: the protocol version,
   every request and response, and a frame's header fields, declared
   once.  Their encodings are described in [Wire], which includes this
   module. *)

exception Wire_error of string

(** The one dialect spoken (8).  The [Hello] handshake carries the
    client's version; a server refuses any other version with a final
    typed error before serving anything else. *)
let protocol_version = 8

(** Chunk size of a streamed snapshot (both the [Subscribe] resync and
    [Snapshot_export] paths): big enough to amortise framing, small
    enough that neither peer ever holds more than one chunk of
    snapshot data in memory. *)
let snapshot_chunk_bytes = 256 * 1024

type frame_meta = {
  fm_deadline_ms : int option;   (** peer's remaining budget, ms *)
  fm_trace : Ddf_obs.Obs.span_ctx option;  (** peer's span context *)
}

type iid = Ddf_store.Store.iid

type catalog = Entities | Tools | Flows

type request =
  | Hello of { user : string; version : int }
      (** client identity (user) + protocol version *)
  | Ping
  | Stat
  | Catalog of catalog
  | Browse of Ddf_store.Store.filter     (** whole-store browse *)
  | Install of {
      entity : string;
      label : string;
      keywords : string list;
      value : Ddf_persist.Sexp.t;        (** {!Ddf_persist.Codec} form *)
    }
  | Annotate of {
      iid : iid;
      label : string option;
      comment : string option;
      keywords : string list option;
    }
  | Start_goal of string
  | Start_data of iid
  | Expand of int
  | Specialize of int * string
  | Select of int * iid list
  | Node_browse of int * Ddf_store.Store.filter
  | Leaves                               (** current flow's leaves *)
  | Run of int
  | Render                               (** ASCII task window *)
  | Recall of iid
  | Trace of iid                         (** derivation trace, rendered *)
  | Uses of iid
  | Refresh of iid                       (** [Consistency.refresh] *)
  | Save_flow of string
  | Load_flow of string
  | Shutdown
  | Subscribe of int
      (** follower → primary: stream me every journal entry with seqno
          greater than this (0 = from the beginning).  The connection
          switches into replication mode: the server answers with an
          optional streamed snapshot ([Ok_snapshot_begin], chunks,
          [Ok_snapshot_end]) followed by an unbounded stream of
          [Ok_frame]s, and reads only [Repl_ack]s from then on. *)
  | Repl_ack of int                      (** follower → primary: applied
                                             through this seqno (no
                                             response) *)
  | Lag                                  (** per-follower replication lag *)
  | Compact                              (** admin: fold the journal into
                                             a fresh snapshot now *)
  | Metrics                              (** the server's metrics registry
                                             snapshot *)
  | Sync_digest
      (** anti-entropy handshake: the server's workspace id, journal
          base/seq, wal digest (seqno → frame md5), per-origin applied
          cursors and canonical state fingerprint — everything a peer
          needs to locate the common prefix and resume a sync *)
  | Sync_frames of { after : int; limit : int }
      (** pull at most [limit] wal frames with seqno > [after] *)
  | Sync_ack of { origin : string; upto : int; frames : (int * string * string) list }
      (** deliver a batch of [origin]'s frames [(seqno, md5,
          payload)] for application through the writer loop and
          advance the persisted origin cursor to [upto]; an empty
          batch just acknowledges.  This is the push half of a sync
          round — a mutation. *)
  | Conflicts                            (** the sync-conflict registry *)
  | Resolve of { conflict : int; winner : iid }
      (** pick the winning version of a surfaced conflict *)
  | Snapshot_export
      (** compact, then stream the on-disk snapshot back as
          [Ok_snapshot_begin], [Ok_snapshot_chunk]s and
          [Ok_snapshot_end] — the bounded-memory bootstrap/backup
          verb.  Handled at connection level (like [Subscribe]). *)
  | Batch of request list
      (** a pipeline: the requests run in order and are answered
          positionally by one [Ok_batch] — one frame each way.  An
          inner failure yields an [Error] at its position and
          execution continues (journaled effects of earlier members
          are not rolled back).  A batch containing a mutation runs as
          one writer job, so its writes group-commit together; batches
          do not nest. *)

type stat = {
  st_role : string;                      (** "primary" or "follower" *)
  st_seq : int;                          (** last journaled seqno *)
  st_clock : int;
  st_instances : int;
  st_records : int;
  st_store_tick : int;
  st_history_tick : int;
  st_uptime_s : float;
}

type instance_row = {
  row_iid : iid;
  row_entity : string;
  row_meta : Ddf_store.Store.meta;
}

type lag_row = {
  lag_follower : string;                 (** follower identity (hello user) *)
  lag_acked : int;                       (** last seqno it acknowledged *)
  lag_sent : int;                        (** last seqno sent to it *)
}

type conflict_row = {
  cf_id : int;
  cf_base : iid;                         (** the version both sides edited *)
  cf_ours : iid;                         (** the local alternative *)
  cf_theirs : iid;                       (** the synced-in alternative *)
  cf_origin : string;                    (** wsid the remote branch came from *)
  cf_at : int;
  cf_winner : iid option;                (** [None] until resolved *)
}

type sync_stats = {
  sy_applied : int;    (** frames whose effects were new here *)
  sy_skipped : int;    (** frames deduplicated as already present *)
  sy_conflicts : int;  (** divergences registered while applying *)
  sy_cursor : int;     (** origin seqno applied through, persisted *)
}

type response =
  | Ok_unit
  | Ok_int of int                        (** fresh node / instance id *)
  | Ok_ints of int list                  (** node or instance ids *)
  | Ok_atoms of string list              (** catalog names *)
  | Ok_text of string                    (** rendered window / trace *)
  | Ok_nodes of (int * string) list      (** node id, entity *)
  | Ok_rows of instance_row list
  | Ok_stat of stat
  | Ok_refresh of { fresh : iid; reran : int; reused : int }
  | Ok_snapshot_begin of { seq : int; bytes : int }
      (** a streamed snapshot follows — [bytes] of workspace save
          taken at [seq], chunked in {!snapshot_chunk_bytes} pieces *)
  | Ok_snapshot_chunk of { data : string }
  | Ok_snapshot_end of { digest : string }
      (** end of stream; [digest] is md5 hex over the whole
          reassembled snapshot *)
  | Ok_frame of { seq : int; payload : string; digest : string }
      (** one journal entry; [digest] is the md5 hex of [payload], the
          same checksum the on-disk frame carries *)
  | Ok_lags of { primary_seq : int; rows : lag_row list }
  | Ok_metrics of Ddf_obs.Metrics.metric list
      (** the server's metrics snapshot; floats travel as IEEE bits
          (hex floats in text) so they round-trip exactly *)
  | Ok_digest of {
      wsid : string;
      base : int;
      seq : int;
      fingerprint : string;
          (** canonical identity-independent state digest: two peers
              whose fingerprints agree hold the same design state even
              though their iids may differ *)
      cursors : (string * int) list;     (** origin wsid → applied seqno *)
      entries : (int * string) list;     (** seqno → frame md5, ascending *)
    }
  | Ok_frames of (int * string * string) list
      (** [(seqno, md5, payload)] — answers [Sync_frames] *)
  | Ok_sync of sync_stats                (** answers [Sync_ack] *)
  | Ok_conflicts of conflict_row list
  | Ok_batch of response list            (** positional answers to [Batch] *)
  | Error of Ddf_core.Error.t
      (** in text:
          [(error <code> <msg> <retryable|final> [(retry-after s)]
          [(ctx ((k v) ...))])].  [retryable] is the server's assertion
          that the request was {e not executed}, so resending cannot
          double-apply; [retry-after] is its backoff hint in seconds.
          A code this build does not know decodes as [`Internal]. *)
