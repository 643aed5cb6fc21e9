(** Plain-text edge-list serialization.

    Format: first line "[n] [m]", then one "[u] [v]" line per edge
    (vertices in [0, n), single spaces).  Blank lines and lines starting
    with '#' are skipped.  Malformed input — a bad header or edge line,
    a negative count, a vertex count no array can hold, a vertex out of
    range, fewer than [m] edge lines — raises
    [Failure "<source>:<line>: <what>"], where [<line>] is the 1-based
    physical line. *)

val write : Graph.t -> string -> unit
(** [write g path]. *)

val read : string -> Graph.t
(** [read path]; errors are located in [path].
    @raise Failure on malformed input. *)

val to_channel : Graph.t -> out_channel -> unit
val of_channel : ?source:string -> in_channel -> Graph.t
(** [source] (default ["<channel>"]) names the input in errors. *)

val to_buffer : Graph.t -> Buffer.t -> unit
(** Same bytes as {!to_channel} — for callers that need the
    serialization in memory (e.g. to checksum it before writing). *)

val of_string : ?source:string -> string -> Graph.t
(** Parse an in-memory edge list (same format and failures as
    {!of_channel}; [source] defaults to ["<string>"]). *)
