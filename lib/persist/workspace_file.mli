(** Workspace persistence.

    The paper's framework is a persistent database: a session — store
    instances with their meta-data, history records, the flow catalog,
    the logical clock — saves to one s-expression file and loads back
    exactly (asserted by dense-id checks and recomputed content hashes;
    the save of a reloaded session is byte-identical, a tested
    fixpoint).  Compiled simulators persist their full
    instruction program.

    {b Format.}  One list, pretty-printed by {!Sexp.to_string} and
    followed by a newline, whose sections come in this fixed order:

    {v
(ddf_workspace
 (version 1)
 (seq N)
 (user U)
 (clock C)
 (instances (IID ENTITY META HASH VALUE) ...)
 (records (RID TASK TOOL INPUTS OUTPUTS AT) ...)
 (conflicts (CID BASE OURS THEIRS ORIGIN AT WINNER) ...)
 (flows (NAME FLOW-TEXT) ...))
    v}

    [conflicts] is omitted when there are none.  [seq] is the journal
    seqno the file holds: the journal's snapshots state it, plain
    saves omit it.  The instances are in
    ascending iid order, dense from the first iid: the writer always
    emits them so, and the loader rejects any other order.  Both
    directions stream one instance at a time, so neither holds the
    whole file as one tree. *)

exception Persist_error of string

val format_version : int

type image
(** What a save writes, captured at one instant: one pinned
    {!Ddf_exec.Engine.view} plus the clock, the user and the flow
    catalog.  Writing an image reads nothing live, so it may run on
    another domain while the session keeps committing, and still
    produces the bytes a quiescent save of that instant would. *)

val image : ?seq:int -> Ddf_session.Session.t -> image
(** Pin the session.  [seq] adds the [(seq N)] header. *)

val save_image : image -> string

val output_image : ?resident_only:bool -> image -> out_channel -> unit
(** Write the image to a channel, one instance at a time through a
    bounded buffer.  [resident_only] (default [false]) refuses, with
    {!Persist_error}, a payload that only the store's cold loader could
    supply. *)

val save : Ddf_session.Session.t -> string
(** [save_image (image session)]: the whole file as one string, for
    callers that need one. *)

val output : Ddf_session.Session.t -> out_channel -> unit
(** Write the same bytes as {!save} to a channel. *)

val save_file : Ddf_session.Session.t -> string -> unit

val load :
  ?registry:Ddf_tools.Encapsulation.registry -> Ddf_schema.Schema.t ->
  string -> Ddf_session.Session.t
(** @raise Persist_error on syntax errors, sections out of order,
    version mismatch, instances out of order or not dense, non-dense
    record or conflict ids, content-hash mismatches
    (tampering/corruption) and trailing input. *)

val load_file :
  ?registry:Ddf_tools.Encapsulation.registry -> Ddf_schema.Schema.t ->
  string -> Ddf_session.Session.t

val load_file_seq :
  ?registry:Ddf_tools.Encapsulation.registry -> Ddf_schema.Schema.t ->
  string -> Ddf_session.Session.t * int option
(** {!load_file}, also returning the file's [seq] header if it has
    one. *)

val seq_of_prefix : string -> int option
(** The [seq] header of a file that starts with the given bytes (its
    first 256 bytes suffice), [None] when it has none.
    @raise Persist_error when the bytes do not start a workspace
    file. *)

(** {1 Shared codecs}

    The meta/record wire forms, reused by the journal and the design
    server's wire protocol so every durable surface speaks one
    format. *)

val meta_to_sexp : Ddf_store.Store.meta -> Sexp.t

val meta_of_sexp : Sexp.t -> Ddf_store.Store.meta
(** @raise Persist_error on malformed input. *)

val record_to_sexp : Ddf_history.History.record -> Sexp.t

type record_parts = {
  rp_rid : int;
  rp_task_entity : string;
  rp_tool : Ddf_store.Store.iid option;
  rp_inputs : (string * Ddf_store.Store.iid) list;
  rp_outputs : (string * Ddf_store.Store.iid) list;
  rp_at : int;
}

val record_of_sexp : Sexp.t -> record_parts
(** The parsed fields of a record (records proper are only minted by
    {!Ddf_history.History.add}). @raise Persist_error. *)
