(** Journal-shipping replication transport.

    A primary design server streams its {!Ddf_journal.Journal} to
    follower daemons: each follower receives an optional streamed
    full-state snapshot followed by every journal entry, tagged with its global
    sequence number and md5 digest, and applies them through its own
    journal — so a caught-up follower's database (store, history,
    meta-data, logical clock, and on-disk wal suffix) is identical to
    the primary's, and the follower is itself crash-safe and
    promotable.

    This module is transport only: {!Feed} is the follower's
    subscription socket, {!Outbox} the primary's per-follower send
    queue, {!Follower} the reconnect-with-backoff driver.  The policy
    ends — what to do with a frame — live in {!Ddf_server.Server}
    (primary fan-out, follower apply) so this library depends only on
    the wire protocol. *)

exception Replica_error of string

(** The follower's end of a replication stream. *)
module Feed : sig
  type t

  type event =
    | Snapshot_file of { seq : int; path : string }
        (** a streamed snapshot, reassembled (byte count and digest
            verified) into a spool file the consumer owns — the full
            state as of [seq], replacing everything, without ever
            existing as one in-memory string *)
    | Frame of {
        seq : int;
        payload : string;
        trace : Ddf_obs.Obs.span_ctx option;
            (** the primary-side span of the write that produced the
                frame, when the primary was tracing *)
      }  (** one journal entry (digest already verified) *)

  val connect :
    ?user:string -> ?spool:string -> socket:string -> since:int -> unit -> t
  (** Dial the primary, handshake ([Hello]) and send
      [Subscribe since].  [spool] is the directory streamed snapshots
      are reassembled in (default the system temp dir); put it on the
      database's filesystem so the final rename into place is atomic.
      @raise Replica_error on connection refusal, a version mismatch,
      or any transport failure. *)

  val next : t -> event
  (** Block for the next stream event.  Verifies each frame's digest.
      @raise Replica_error on end-of-stream, checksum failure or a
      protocol violation. *)

  val ack : t -> int -> unit
  (** Tell the primary we have durably applied through [seq].  Send
      failures are ignored — the stream read will fail soon after. *)

  val close : t -> unit
end

(** The primary's send side of one replication connection: a bounded
    queue drained by a private sender thread, so the engine's writer
    loop never blocks on a slow follower.  A follower more than [cap]
    frames behind is evicted (its socket shut down); on reconnect it
    lands on the normal catch-up path. *)
module Outbox : sig
  type t

  val create : ?cap:int -> name:string -> Unix.file_descr -> t
  (** [cap] defaults to 65536 queued messages.  The sender thread
      drains each contiguous run of queued responses and flushes it
      as {e one} gathered write. *)

  val name : t -> string
  val push : ?trace:Ddf_obs.Obs.span_ctx -> t -> Ddf_wire.Wire.response -> unit
  (** Enqueue; silently drops when the outbox is dead.  [Ok_frame]
      updates the sent-seqno watermark.  [trace] rides
      the frame header so the follower's apply span joins the
      producing write's trace. *)

  val push_snapshot : t -> seq:int -> Unix.file_descr -> unit
  (** Enqueue an open snapshot file, holding the state at [seq], to be
      streamed as begin/chunk/end frames
      ({!Ddf_wire.Wire.send_snapshot}); the sender closes it.  Open it
      with the writer excluded (see {!Ddf_journal.Journal.pin_snapshot})
      so that [seq] and the pinned bytes agree. *)

  val note_ack : t -> int -> unit
  val sent : t -> int    (** highest seqno enqueued *)

  val acked : t -> int   (** highest seqno acknowledged *)

  val alive : t -> bool
  val close : t -> unit
  (** Stop the sender thread and shut the socket down (the connection
      loop still owns the descriptor's close). *)
end

(** A background thread keeping one replication stream alive:
    reconnects with bounded exponential backoff (50ms doubling to 2s),
    resubscribes from [current_seq ()], and feeds every event to the
    [apply]/[reset_file] hooks.  The hooks run on the follower thread and
    must raise on failure — the driver then drops the connection and
    retries, which restarts catch-up cleanly. *)
module Follower : sig
  type t

  val start :
    ?name:string ->
    ?spool:string ->
    primary:string ->
    current_seq:(unit -> int) ->
    apply:(trace:Ddf_obs.Obs.span_ctx option -> seq:int -> string -> unit) ->
    reset_file:(seq:int -> string -> unit) ->
    ?on_error:(string -> unit) ->
    unit -> t
  (** [spool] is where streamed snapshots are reassembled.
      [reset_file] handles a {!Feed.Snapshot_file} event — typically
      {!Ddf_journal.Journal.reset_to_snapshot_file}, which consumes the
      spool file (the driver removes it if the hook did not). *)

  val primary : t -> string

  val stop : t -> unit
  (** Interrupt the stream and join the thread.  Idempotent; after
      [stop] the local database stops tracking the primary — the
      promotion hook. *)
end
