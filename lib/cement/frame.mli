(** The J1 frame every journal entry is stored in, in the wal's
    segments and the cement segments alike:
    [J1 <payload-bytes> <md5-hex>\n<payload>\n].  The payload is
    opaque here; the journal owns its format. *)

exception Torn of int
(** A frame cut short, malformed or failing its checksum, at the
    offset where it starts (the end of the good prefix). *)

val output : out_channel -> string -> unit
(** Write a payload's frame: the header, the payload, the newline. *)

val to_string : string -> string
(** The bytes {!output} writes, as one string. *)

val input : in_channel -> string option
(** Read the frame at the channel's position and return its payload;
    [None] cleanly at end of file.
    @raise Torn when the bytes there are not a whole, intact frame. *)
