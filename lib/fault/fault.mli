(** Fault injection for crash and failure testing.

    A {e fault point} is a named hook compiled into a production code
    path; it does nothing until armed.  Tests arm points
    programmatically ({!arm}); operators and CI arm them through the
    [DDF_FAULT] environment variable, so a stock binary can be run
    under injected fsync failures, torn writes, severed sockets and
    writer stalls without a rebuild.

    Points currently wired in:
    - ["journal.fsync"]      the wal durability fsync ([Fail] → the
                             sync raises, like a dying disk; the
                             journal fail-stops)
    - ["journal.torn_write"] a wal frame append ([Torn n] → only the
                             first [n] bytes reach the file, then the
                             append raises — a crash mid-write)
    - ["journal.dir_fsync"]  the directory fsync pinning a segment
                             rotation, a snapshot install or a resync
                             (the rotation's is the first hit of a
                             compaction, the install's the second)
    - ["journal.rotate"]     before a compaction closes [wal.ddf] and
                             opens a fresh segment ([Fail] fail-stops
                             the journal)
    - ["journal.snapshot_write"] the background snapshot write, with
                             its tmp file open and empty ([Delay s]
                             holds the second domain while the writer
                             keeps committing; [Fail] fails the
                             compaction)
    - ["journal.snapshot_rename"] between the fsynced tmp snapshot and
                             its rename into place
    - ["journal.segment_delete"] before each closed segment that a
                             durable snapshot covers is deleted (and
                             before each segment a resync drops)
    - ["wire.send"]          any framed socket send ([Torn n] → the
                             peer sees [n] bytes then a dead
                             connection)
    - ["server.writer_stall"] the server's writer loop, once per
                             batch ([Delay s] → the writer sleeps with
                             requests queued behind it)
    - ["sync.pull"]          before each anti-entropy frame fetch
                             ([Fail] → the sync round dies mid-flight;
                             the persisted cursor makes the next sync
                             resume where this one stopped)

    The spec grammar for [DDF_FAULT] (and {!configure}) is a
    semicolon-separated list of [point=action], where action is
    [fail], [torn:BYTES], or [delay:SECONDS], optionally suffixed by
    [@N] (skip the first N hits) and [xM] (fire M times; [x*] forever,
    default once):

    {[ DDF_FAULT="journal.fsync=fail@2;wire.send=torn:10x*" ]}

    Injection raises {!Injected}, which carries the point name and is
    classified as an internal error by the server — exactly how an
    unexpected [Unix_error] from the real syscall would surface. *)

exception Injected of string

type action =
  | Fail  (** raise {!Injected} at the point *)
  | Torn of int  (** emit only the first [n] bytes, then raise *)
  | Delay of float  (** sleep [s] seconds, then continue *)

val arm : ?after:int -> ?times:int -> string -> action -> unit
(** Arm [point]: skip the first [after] hits (default 0), then fire on
    the next [times] hits (default 1; [max_int] ≈ forever).  Re-arming
    a point replaces its previous state. *)

val disarm : string -> unit

val reset : unit -> unit
(** Disarm everything (including [DDF_FAULT]-loaded points). *)

val configure : string -> unit
(** Parse a spec string (the [DDF_FAULT] grammar) and arm each entry.
    Raises [Invalid_argument] on a malformed spec. *)

val load_env : unit -> unit
(** Arm from [DDF_FAULT] if set.  Called automatically before the
    first {!fire}/{!check}; explicit calls re-read the variable. *)

val fire : string -> unit
(** Hit [point]: no-op when unarmed; [Delay] sleeps; [Fail] and [Torn]
    raise {!Injected}.  Use {!check} at sites that can honour [Torn]
    byte counts. *)

val check : string -> action option
(** Hit [point] and return the action to perform, consuming one armed
    hit; [None] when unarmed (or still in the [after] window).  [Delay]
    is already slept before returning. *)

val fired : string -> int
(** How many times [point] actually injected (not mere hits). *)
