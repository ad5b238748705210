(** The Hercules design-server wire protocol.

    One protocol version, one socket framing.  Every frame is

    {v 0xd8 | flags u8 | body-length u32-LE | [deadline-ms u32-LE] | [u8-len trace token] | body v}

    where flag bit 0 announces the deadline field — the sender's
    remaining budget in milliseconds, how long it is still willing to
    wait for the answer (the server sheds requests it cannot start in
    time) — and flag bit 1 the trace context
    ({!Ddf_obs.Obs.span_ctx_to_token}) linking the receiver's spans
    into the sender's distributed trace.  The body is a tag byte and
    the message's fields: fixed-width little-endian ints, IEEE float
    bits, length-delimited strings.  Design-object values, journal
    frames and snapshot chunks ride in it as opaque length-delimited
    byte slices the codec never re-encodes.

    Each message is described once — tag byte, text name, typed fields
    — and both of its codecs are derived from that description: the
    binary body above, and an s-expression text form for
    [remote batch] stdin, debug output and test failures.

    The request surface mirrors {!Ddf_session.Session}: catalog
    queries, task-window construction (expand / specialize / select),
    execution, history queries and consistency refresh — plus
    auth-lite client identity ([Hello]) that the server maps onto
    [Store.meta.user] for every mutation the client performs. *)

(** {1 Messages}

    The protocol version, every request and response, and a frame's
    header fields, declared once in {!Messages}. *)

include module type of struct
  include Messages
end

val request_name : request -> string
(** Stable short name for tracing and metrics ("run", "browse", ...) —
    the message's text name. *)

val response_name : response -> string
(** Likewise ("ok-int", "error", ...). *)

val is_mutation : request -> bool
(** Must the request go through the single-writer engine loop?
    Session-window operations (expand/select/...) mutate only the
    per-connection session and count as reads of the shared store. *)

(** {1 Whole-message codecs} *)

val request_to_binary_string : request -> string
val request_of_binary_string : string -> request
val response_to_binary_string : response -> string
val response_of_binary_string : string -> response
(** Frame bodies (no header) as plain strings — the property-test and
    bench surface; the socket paths below keep the gathered iovec
    form.  Decoders
    @raise Wire_error on malformed input, including trailing bytes. *)

val request_to_text : request -> string
val request_of_text : string -> request
val response_to_text : response -> string
val response_of_text : string -> response
(** The one-line s-expression form, e.g. [ping], [(run 3)],
    [(browse (filter (entities (netlist))))].  Named fields
    ([(label l)], [(filter ...)] members, [(retry-after s)]) are left
    out when absent; an option prints as [()] or [(v)].  Parsers
    @raise Wire_error on malformed input. *)

(** {1 Framed socket I/O}

    Each call observes the [wire.binary.encode_seconds] /
    [wire.binary.decode_seconds] histograms and the
    [wire.binary.bytes_out] / [wire.binary.bytes_in] counters. *)

val send_request :
  ?deadline_ms:int -> ?trace:Ddf_obs.Obs.span_ctx ->
  Unix.file_descr -> request -> unit
(** Write one frame.  [deadline_ms] puts the sender's remaining budget
    in the header (saturating at 2{^32}-1 ms), [trace] its span
    context.  @raise Wire_error on a closed peer. *)

val send_response :
  ?deadline_ms:int -> ?trace:Ddf_obs.Obs.span_ctx ->
  Unix.file_descr -> response -> unit

val send_response_batch :
  Unix.file_descr -> (response * Ddf_obs.Obs.span_ctx option) list -> unit
(** Flush a whole group of response frames (each with its own trace
    context) as {e one} gathered kernel write — the replication
    outbox's group-commit fan-out.  Large payload bodies are carried
    as borrowed slices, never concatenated on the OCaml side. *)

val recv_request : Unix.file_descr -> (request * frame_meta) option
(** Read and decode one request; [None] on clean end-of-stream.
    @raise Wire_error on framing or decode violations — including a
    frame that does not start with the [0xd8] magic. *)

val recv_response : Unix.file_descr -> (response * frame_meta) option

val connect : ?timeout:float -> user:string -> string -> Unix.file_descr
(** [connect ~user socket] dials the server's Unix-domain socket and
    says [Hello] as [user] at {!protocol_version}; the returned
    descriptor is ready for requests.  [timeout] arms [SO_RCVTIMEO]
    (seconds) on it.
    @raise Ddf_core.Error.Ddf_error when the server refuses the hello
    @raise Wire_error on any transport failure. *)

(** {1 Streamed snapshots} *)

val send_snapshot : Unix.file_descr -> seq:int -> Unix.file_descr -> unit
(** [send_snapshot fd ~seq sfd] streams the snapshot file open on [sfd]
    as [Ok_snapshot_begin], then {!snapshot_chunk_bytes}-sized
    [Ok_snapshot_chunk]s, then [Ok_snapshot_end] (md5 over the whole
    file).  Open [sfd] with the writer excluded — it pins the snapshot
    inode against later compaction renames.  Holds at most one chunk
    in memory; closes [sfd]; counts [replica.snapshots_streamed].
    @raise Wire_error (or the file's I/O errors) to abort. *)

val recv_snapshot : Unix.file_descr -> bytes:int -> string -> unit
(** After an [Ok_snapshot_begin] announcing [bytes], spool the
    streamed snapshot's chunks into the file at the given path until
    [Ok_snapshot_end], then verify the byte count and the md5.  Holds
    at most one chunk in memory; removes the file on any failure.
    @raise Wire_error on a short, corrupt or interrupted stream
    @raise Ddf_core.Error.Ddf_error when the peer answers [Error]. *)
