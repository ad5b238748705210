(** Tiered cold storage for cemented journal history.

    The journal's entries are immutable once written: frames below the
    compaction watermark (the seqno the snapshot holds) describe puts,
    annotations and flow records that can never change again.  Before
    this subsystem they were folded into the snapshot and {e discarded} — restart
    replay, anti-entropy catch-up and cold version/trace queries below
    the watermark were impossible without a full resync.

    [Cement] keeps that history in {e segments}: append-only,
    checksummed, index-backed files under a [cemented/] directory.  A
    segment holds a contiguous seqno window

    {v
      segment-<first>-<last>.ddf   C1 <first> <last>\n + J1 frames
      segment-<first>-<last>.idx   I1 header + fixed-width offset lines
    v}

    The frames reuse the wal's [J1 <len> <md5>] framing, so a cemented
    frame is byte-identical to the wal frame it came from; the index
    maps a seqno to its byte offset in O(1) (one fixed-width line per
    entry), so lookups are served by pread-style positioned reads, not
    replay.  The index is derived data: a missing or inconsistent
    [.idx] is rebuilt from its segment on open.

    Crash safety: segments are written to a temp file, fsynced and
    renamed into place (the directory is fsynced after the rename); a
    torn tail on the newest segment — external truncation, a crash
    while the file system reordered writes — is detected on open by a
    full scan of that segment and truncated back to the last good
    frame (an empty survivor is dropped entirely).

    Thread safety: all operations on one [t] are serialised by an
    internal mutex; callers may read from any thread. *)

type t

val open_ : dir:string -> t
(** Open (creating the directory if needed) the cement store rooted at
    [dir].  Scans segment files, validates contiguity, truncates a
    torn newest segment and rebuilds stale indexes.
    @raise Ddf_core.Error.Ddf_error on unrecoverable corruption (a
    seqno gap between surviving segments). *)

val dir : t -> string

val first_seq : t -> int
(** Lowest cemented seqno; [0] when the store is empty. *)

val last_seq : t -> int
(** Highest cemented seqno; [0] when the store is empty. *)

val segment_count : t -> int

val total_bytes : t -> int
(** Bytes across all segment ([.ddf]) files. *)

val truncated_on_open : t -> int
(** Bytes of torn tail dropped by crash recovery during {!open_}. *)

val fold : t -> first:int -> (int * string) list -> unit
(** [fold t ~first frames] cements [frames] (ascending, contiguous
    [(seqno, payload)] starting at [first]) as one new segment.
    Frames with seqno <= {!last_seq} are skipped — refolding after a
    compaction that failed past its fold is idempotent — and the remainder must start at [last_seq t + 1].
    A no-op on an empty list.  Durable on return (file and directory
    fsync).  Observes [cement.fold_seconds] and bumps
    [cement.segments]/[cement.bytes].
    @raise Ddf_core.Error.Ddf_error on a seqno gap. *)

val read : t -> int -> string option
(** [read t seq] returns the cemented frame payload for [seq] via one
    index lookup and one positioned read, verifying the frame
    checksum; [None] when [seq] is outside the cemented window.
    Counts [cement.reads]. *)

val iter_range : t -> from:int -> upto:int -> (int -> string -> unit) -> unit
(** [iter_range t ~from ~upto f] calls [f seq payload] for every
    cemented seqno in [[from, upto]] (clamped to the cemented window),
    ascending — sequential reads, one index lookup per segment. *)

val find_put : t -> iid:int -> string option
(** The cemented [put] frame payload that installed instance [iid], if
    any — the store's cold-load path for evicted payloads.  Served by
    an index scan (the index records each frame's kind and id). *)

val iter_puts : t -> (int -> unit) -> unit
(** Iterate the iids of every cemented [put] frame (index scan, no
    frame reads) — the eviction planner's view of what is reloadable. *)

val clear : t -> unit
(** Drop every segment — used when the journal's history is replaced
    wholesale (a snapshot resync rebases the seqno line, so the old
    cold history no longer belongs to this database). *)

val close : t -> unit
(** Release cached descriptors.  The [t] stays usable (descriptors
    reopen lazily); call it when discarding the store. *)
