(** Frozen per-node lookup tables, and the Thorup–Zwick cluster search
    that both {!Distance_oracle} and {!Compact_routing} fill them from.

    A table maps each node [v] to a set of [(key, value)] entries with
    non-negative values.  It is stored flat (CSR): [off] (n+1 offsets)
    and one int array of interleaved [(key, value)] pairs, keys
    ascending within each node's segment — two words per entry, no
    per-node hash table.  A lookup is a binary search over one node's
    segment; the value it returns sits next to the key it matched, in
    the same cache line, and nothing is allocated. *)

type t

val build : n:int -> ((int -> int -> int -> unit) -> unit) -> t
(** [build ~n emitter] calls [emitter emit] twice: the first pass
    counts the entries per owner, the second places them, so the
    arrays are allocated once at their exact size.  [emit v k x] adds
    entry [k -> x] at node [v]; both passes must emit the same entries
    in the same order, and the keys one owner receives must ascend.
    @raise Invalid_argument if an owner's keys do not strictly
    ascend or a value is negative. *)

val find : t -> int -> int -> int
(** [find t v k] is the value stored under [k] at [v], or [-1]. *)

val length : t -> int -> int
(** Entries stored at one node. *)

val entries : t -> int
(** Entries stored over all nodes. *)

val build_over :
  n:int -> t -> ((int -> int -> int -> unit) -> unit) -> t
(** [build_over ~n base emitter] is [build ~n emitter] with [base]'s
    entries merged in: an emitted entry replaces [base]'s entry for the
    same key at the same node. *)

val iter_clusters :
  Graphlib.Graph.t ->
  next_dist:(int -> int array) ->
  (int -> int -> int -> int -> unit) ->
  unit
(** For every center [w], in ascending id, a BFS from [w] pruned to the
    Thorup–Zwick cluster [{v : delta(v, w) < next.(v)}] with
    [next = next_dist w] ([max_int] = unreachable): calls
    [f w v d p] for each member [v] at distance [d] with BFS parent
    [p] toward [w] — the center first as [f w w 0 w], then the others
    in BFS order.  The search's work arrays are shared across centers. *)
