(** A minimal s-expression reader/printer: the workspace's on-disk
    syntax.  Atoms are bare words or double-quoted strings with the
    usual escapes; lists are parenthesized; [;] comments run to end of
    line. *)

type t =
  | Atom of string
  | List of t list

exception Sexp_error of string

val to_string : ?pretty:bool -> t -> string
(** The pretty form (the default, for people) puts each nested list
    after a list's first item on its own line; [~pretty:false] is the
    flat form, one space between items, of every durable byte. *)

val of_string : string -> t
(** @raise Sexp_error on malformed input or trailing text. *)

(** {1 Streaming}

    A document too large to hold as one tree is read and written one
    element at a time.  The writer produces exactly the bytes of
    [to_string ~pretty:false]; the cursor accepts any layout, and
    [of_string] is itself [next] followed by [finish]. *)

type cursor
(** A read position in a text. *)

val cursor : string -> cursor

val enter : cursor -> unit
(** Step into the list that starts at the next element.
    @raise Sexp_error when the next element is not a list. *)

val at_close : cursor -> bool
(** Whether the innermost entered list has no element left.
    @raise Sexp_error at end of input (an unterminated list). *)

val next : cursor -> t
(** Parse the next element whole.
    @raise Sexp_error on malformed input, a stray [')'] or end of input. *)

val leave : cursor -> unit
(** Step out of the innermost entered list.
    @raise Sexp_error unless it has no element left. *)

val finish : cursor -> unit
(** @raise Sexp_error unless only whitespace and comments remain. *)

type writer
(** Appends the flat form of a tree whose lists, each headed by an
    atom, are opened and closed explicitly. *)

val writer : Buffer.t -> string -> writer
(** Open the outermost list, headed by the given atom. *)

val open_list : writer -> string -> unit
(** Open a list headed by the given atom in the innermost open one. *)

val add : writer -> t -> unit
(** Append one whole element to the innermost open list. *)

val close_list : writer -> unit

(** {1 Construction helpers} *)

val atom : string -> t
val int : int -> t
val float : float -> t
(** Hexadecimal float notation, so round trips are exact. *)

val bool : bool -> t
val list : t list -> t
val field : string -> t list -> t
(** [(name item ...)]. *)

(** {1 Destructuring helpers}

    Each raises {!Sexp_error} on shape mismatch. *)

val as_atom : t -> string
val as_int : t -> int
val as_float : t -> float
val as_bool : t -> bool
val as_list : t -> t list
val find_field : t list -> string -> t list
val find_field_opt : t list -> string -> t list option
val one : string -> t list -> t
