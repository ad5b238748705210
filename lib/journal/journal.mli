(** A durable write-ahead log for the design database.

    The paper's framework is a shared, persistent design database:
    many designers work against one store and history, and the
    derivation meta-data must survive across sessions.  [Journal]
    makes an {!Ddf_exec.Engine.context} durable: every [Store.put],
    annotation and [History.add] is appended to an on-disk log
    ([wal.ddf]) as one checksummed, length-prefixed s-expression frame
    before the caller proceeds, and replaying snapshot + log
    reconstructs the context — same iids, rids, meta-data, payload
    hashes and logical clock.

    Crash safety: frames are self-delimiting with an MD5 checksum, so
    a torn tail (power cut mid-append) is detected and truncated on
    open; everything up to the last complete frame replays.  Periodic
    compaction folds the log into a full workspace snapshot
    ([snapshot.ddf], the {!Ddf_persist.Workspace_file} format) and
    drops the log segments it covers.  Every file states which seqnos
    it holds: the snapshot's [(seq N)] header, and each segment's
    first line ([S1 first]).  Recovery loads the snapshot at [N] and
    applies every segment frame above [N] in order. *)

exception Journal_error of Ddf_core.Error.t
(** Deprecated alias of {!Ddf_core.Error.Ddf_error}: corruption and
    ordering violations are [`Internal]/[`Conflict], operations on a
    closed or failed journal are [`Unavailable]. *)

type t

type sync_mode =
  | Always  (** [fsync] inside every append: each entry is on disk
                before the caller proceeds. *)
  | Group   (** appends only flush to the OS; {!sync} makes everything
                buffered durable with one [fsync] — classic WAL group
                commit.  The default: callers choose the durability
                points. *)
  | Never   (** no [fsync] at all — for replay-only followers and
                benchmark scaffolding.  A clean close loses nothing; a
                machine crash may lose the tail. *)

val sync_mode_of_string : string -> sync_mode option
(** ["always"], ["group"], ["none"] (or ["never"]). *)

val sync_mode_to_string : sync_mode -> string

val open_ :
  ?registry:Ddf_tools.Encapsulation.registry ->
  ?compact_every:int ->
  ?sync_mode:sync_mode ->
  ?cement:bool ->
  dir:string -> Ddf_schema.Schema.t -> t
(** Open a database directory (created when missing): load
    [snapshot.ddf] if present, replay the frames of every log segment
    above its seqno (truncating a torn tail), then attach write
    observers to the rebuilt context so subsequent mutations are
    journaled.  [compact_every] (default 10_000) is the log-entry
    threshold {!maybe_compact} acts on.
    [sync_mode] (default {!Group}) sets when entries become durable.
    [cement] (default [true]) keeps compacted history in the tiered
    cold store (see the {!section-cement} section); [false] restores
    the old discard-on-compact behaviour.
    @raise Journal_error on corruption before the tail (iid/rid or
    content-hash mismatches) and on a seqno that no file holds. *)

val sync_mode : t -> sync_mode
val set_sync_mode : t -> sync_mode -> unit

val context : t -> Ddf_exec.Engine.context
(** The journaled context; mutate it only through the normal engine /
    store / history operations. *)

val dir : t -> string

val entries_since_snapshot : t -> int
(** Entries journaled since the last compaction began. *)

val truncated_on_open : t -> int
(** Bytes of torn tail dropped by crash recovery during {!open_}. *)

val failed : t -> string option
(** Fail-stop reason, if a write-path failure (fsync error, short
    write, injected fault) poisoned the journal.  A failed journal
    refuses every later mutation with [`Unavailable] so a bad frame
    can never end up buried mid-log — recovery truncates at the first
    torn frame, and anything after it would be lost even though it was
    acknowledged.  Cleared only by reopening. *)

val sync : t -> unit
(** A durability point: flush and [fsync] the log, so everything
    journaled so far survives a machine crash.  In {!Group} mode this
    is the group commit — one [fsync] covers every entry appended
    since the previous durability point, and the batch size is
    recorded in the [journal.group_commit_batch] histogram.  In
    {!Never} mode it only flushes.  Skips the [fsync] when nothing is
    pending. *)

val compact : t -> unit
(** Synchronous compaction: wait for a background one in flight, then
    write a snapshot of the current state and drop the segments it
    covers.  A no-op when the installed snapshot already holds the
    current seqno and clock.  The steps are those of {!maybe_compact},
    all on the calling thread.
    @raise Journal_error (or the I/O error) when the snapshot cannot
    be written; the previous snapshot and every segment stay. *)

val maybe_compact : t -> bool
(** Start a background compaction when [compact_every] entries were
    journaled since the last one began; returns whether it started
    one.  The caller's share (timed into [journal.compact_stall_us])
    is to pin a view, fold the frames it covers into cement, and
    rotate the live segment ([wal.ddf] becomes [wal.F.ddf]).  A second
    domain then writes the pinned view to [snapshot.ddf.tmp], fsyncs
    it, renames it into place and fsyncs the directory (timed into
    [journal.compact_seconds]), while the caller keeps journaling.
    Later calls settle it: the closed segments the new snapshot
    covers are deleted.  While one is in flight a call over the
    threshold counts [journal.compactions_deferred] and does nothing.
    A failure is counted in [journal.compact_failures] and leaves the
    previous snapshot and every segment; it is never raised.  The
    background write refuses payloads that only the store's cold
    loader could supply (a database that ran {!evict_cold} compacts
    with {!compact}). *)

val close : t -> unit
(** Wait for a background compaction, detach the observers, {!sync}
    and close the log.  The context remains usable but further writes
    are no longer journaled. *)

(** {1 Replication (journal shipping)}

    Every journaled entry has a global sequence number: the installed
    snapshot covers entries [1..base_seq] and the log segments hold
    [base_seq+1..seq].  A primary streams frames tagged with
    their seqnos; a follower applies them through its own journal, so
    its wal is byte-for-byte the primary's log suffix. *)

val seq : t -> int
(** Sequence number of the last entry journaled (applied or appended). *)

val base_seq : t -> int
(** Sequence number held by the installed snapshot.  A background
    compaction moves it when the writer settles it. *)

val set_frame_observer : t -> (int -> string -> unit) -> unit
(** Install the single frame observer, called with [(seqno, payload)]
    after each entry reaches the local disk — the replication fan-out
    point.  Called from whichever thread performs the write. *)

val clear_frame_observer : t -> unit

type tail =
  | Frames of (int * string) list  (** [(seqno, payload)], ascending *)
  | Snapshot_needed
      (** the requested seqno predates the snapshot base: the follower
          must resync from a fresh snapshot *)

val entries_since : t -> int -> tail
(** Entries with seqno greater than the argument, read back from the
    on-disk segments.  Call with writers excluded (the design server calls
    it from its single-writer loop). *)

(** {1 Anti-entropy sync support}

    {!Ddf_sync} reconciles two divergent journals pairwise: each side
    publishes {!digest} (seqno → frame md5 over its wal), the common
    prefix is located by comparing digests, and exactly the missing
    frames are fetched with {!frames} and re-executed remotely.  Like
    the replication readers, call these with writers excluded. *)

val digest : t -> (int * string) list
(** [(seqno, md5)] per segment frame, ascending — entries
    [base_seq+1 .. seq].  The md5 is the frame-header checksum, so
    equal digests mean byte-identical entries. *)

val frames : t -> after:int -> limit:int -> (int * string * string) list
(** At most [limit] frames with seqno > [after], as
    [(seqno, md5, payload)] ascending.  Frames below [base_seq] are
    served from the cement store when it covers them (positioned
    reads), transparently continuing into the wal.
    @raise Journal_error ([`Conflict]) when [after] predates both the
    cemented window and [base_seq]: those frames are gone. *)

val frame_digest : string -> string
(** The md5 hex a frame header (and {!digest}) carries for a payload. *)

val wsid : t -> string
(** This database directory's stable workspace identity, minted on
    first use and persisted in [wsid.ddf].  Clones of a directory must
    remove that file (like a machine-id) to sync as their own peer. *)

val apply : t -> seq:int -> string -> unit
(** Follower-side: apply one replicated frame — replay the payload into
    the context and append the identical bytes to the local wal.
    @raise Journal_error on a sequence gap ([seq] must be [seq t + 1]),
    content-hash mismatch or out-of-order ids. *)

val reset_to_snapshot_file : t -> seq:int -> string -> unit
(** Follower-side resync: replace the whole database (disk and the
    live context, in place) with a primary snapshot taken at [seq] and
    spooled to the given file path in bounded chunks (a streamed
    bootstrap), so the state never exists as one in-memory string.
    The file is parsed first — a malformed stream, or one whose
    [(seq N)] header is not [seq], leaves the database untouched —
    then the old segments are deleted, newest first, and the file is
    fsynced and renamed (or copied across filesystems) into place.  Clears the cement store — its history
    belongs to the pre-reset seqno line.  Counts
    [journal.snapshot_stream_resyncs] on top of
    [journal.snapshot_resyncs].
    @raise Journal_error when the file does not parse. *)

val snapshot_file : t -> string
(** Path of [snapshot.ddf] in this database directory.  Exists
    whenever [base_seq t > 0]; it may already hold a later seqno than
    [base_seq] while a background compaction is being settled. *)

val pin_snapshot : t -> int * Unix.file_descr
(** Open [snapshot.ddf] and read the seqno its header names — the
    pair a primary streams to bootstrap a follower.  The descriptor
    pins the inode, so a compaction renaming a newer snapshot into
    place cannot change what it reads.  The caller closes it.
    @raise Journal_error when the file names no seqno. *)

(** {1:cement Tiered cold storage}

    With cement enabled (the {!open_} default), a compaction folds the
    frames its snapshot covers into an append-only, indexed
    cold store under [cemented/] (see {!Ddf_cement.Cement}).  The full
    journaled history 1..seq then stays addressable: seqnos at or
    below [base_seq] resolve by positioned reads against cement,
    seqnos above it live in the wal.  The store's heavy payloads can
    be evicted from memory and reloaded on demand from their cemented
    put frames. *)

val cement_stats : t -> (int * int * int * int) option
(** [(segments, bytes, first_seq, last_seq)] of the cement store, or
    [None] when nothing has been cemented (or cement is disabled). *)

val cold_frame : t -> int -> string option
(** The cemented frame payload for a seqno — one index lookup and one
    checksum-verified positioned read; [None] outside the cemented
    window. *)

val evict_cold : t -> int
(** Evict resident payloads whose every owning instance can be
    reloaded from cement (payloads are shared by content hash, so a
    payload only leaves memory when all its owners' puts are
    cemented).  Instance meta-data always stays resident.  Returns the
    number of payloads evicted; later reads reload and re-promote them
    transparently ([store.cold_loads]). *)
