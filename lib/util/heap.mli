(** Minimal binary min-heap keyed by integers.  Sufficient for the
    Dijkstra-style traversals in the graph substrate and for the ARQ
    pump's retransmit-timer queue. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> key:int -> 'a -> unit

val pop_min : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest key. *)

val peek_min : 'a t -> (int * 'a) option

val exists : 'a t -> ('a -> bool) -> bool
(** Does any entry's value satisfy the predicate?  Linear in the size. *)
