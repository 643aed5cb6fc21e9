(** The one JSON codec for every file this repository writes and reads
    back: trace logs, metrics snapshots, span logs, profiles, sweep
    reports, Perfetto exports and bench timings.

    {b Lines.}  A JSON-lines file holds one object per line.  Every
    object carries a ["kind"] tag naming its format ([metric], [span],
    [prof], a trace event's kind, a [meta] header...); {!iter_file}
    hands each line's tag to the loader so it can pick the lines it
    owns.  Blank (or whitespace-only) lines and CRLF endings are
    tolerated, so a file survives editor or transfer round-trips.

    {b Escaping.}  {!quote} is the only string escaper: every string a
    writer puts in a JSON template goes through it.

    {b Errors.}  A reader never crashes on bad input: a truncated line,
    garbage, a missing or ill-typed field, or a number that does not
    fit raises {!Parse_error} naming the file, the 1-based line and the
    offending text. *)

exception Parse_error of { file : string; line : int; msg : string }
(** The one parse error of every loader.  A printer is registered:
    [Printexc.to_string] renders it as ["FILE: line N: MSG"]. *)

val quote : string -> string
(** [quote s] is [s] as a JSON string literal, quotes included.
    [s] is taken to be UTF-8: bytes [>= 0x80] pass through, the quote
    and backslash characters are backslash-escaped, and control
    characters become [\n], [\t], ... or [\u00XX].  On printable
    ASCII this is byte-identical to [Printf.sprintf "%S"]. *)

(** {1 Values} *)

type t =
  | Null
  | Bool of bool
  | Number of string  (** the literal, converted by {!int} or {!float} *)
  | String of string
  | Array of t list
  | Object of obj

and obj
(** An object, with the file and line it was read from. *)

val fail : obj -> string -> 'a
(** [fail o msg] raises {!Parse_error} at [o]'s line, appending the
    line's text to [msg]. *)

(** {1 Fields}

    A converter reads one field value, or returns [None] when the
    value has the wrong type or does not fit. *)

type 'a conv

val int : int conv
val float : float conv
val string : string conv
val obj : obj conv
val list : 'a conv -> 'a list conv
val assoc : 'a conv -> (string * 'a) list conv
(** An object whose values all convert, in file order. *)

val req : obj -> string -> 'a conv -> 'a
(** A required field.  @raise Parse_error when it is absent or does
    not convert. *)

val opt : obj -> string -> 'a conv -> 'a option
(** An optional field: [None] when absent or [null].
    @raise Parse_error when present but does not convert. *)

(** {1 Files} *)

val iter_file : string -> (string -> obj -> unit) -> unit
(** [iter_file file f] calls [f kind o] on every non-blank line in file
    order, in constant memory.
    @raise Parse_error on a line that is not an object with a string
    ["kind"]. *)

val find_line : string -> (string -> bool) -> (string * obj) option
(** The first line whose kind satisfies the predicate, reading no
    further. *)

val parse_file : string -> t
(** The whole file as one JSON document (e.g. a pretty-printed
    timings array). *)

val save : string -> ((string -> unit) -> unit) -> unit
(** [save file emit] writes every line [emit] passes to its argument,
    each newline-terminated. *)
