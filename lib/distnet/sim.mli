(** Synchronous message-passing network simulator.

    This is the paper's computational model (Section 1.1): the
    communication network {e is} the input graph; computation proceeds
    in synchronized rounds; in each round a node may send one message
    to each neighbor; local computation is free.  Message length is
    measured in units of [O(log n)] bits — a "word" holds a vertex
    identifier, an edge identifier, or a small counter — which is the
    unit of the paper's Fig. 1 "message length" column.

    Two layers are provided.  The low-level {e engine} enforces the
    model (neighbor-only unicast, one message per directed edge per
    round, word accounting) while an algorithm module drives rounds
    explicitly — this is how the intricate multi-phase protocols
    (skeleton, Fibonacci balls) are written.  The {!Run} functor wraps
    the engine for self-contained node programs; {!Run_active} extends
    it to protocols with internal timers (retransmission) that must
    keep receiving rounds while the network is quiescent.  Both run on
    {!Pump}, which visits a node only when it has something to do.

    The engine can be driven over a faulty network: {!create}'s
    [?faults] plan ({!Fault.t}) injects message loss, duplication,
    bounded delay, node crashes — crash-stop, or {e crash-recovery}
    when the plan schedules a restart — and {e topology churn} (edges
    down/up, partitions, late joins), and [?tracer] records every
    network event into a {!Trace.t} for audit and deterministic replay.
    Both default to off, in which case behavior is bit-identical to the
    fault-free engine.

    Crash-recovery: a restarted node comes back with a fresh
    incarnation number.  Every envelope is stamped with the incarnation
    of both endpoints at send time, and delivery discards a message
    whose sender or addressee has since changed incarnation (traced as
    a [Drop Stale]) — a reborn node never consumes its predecessor's
    traffic.  Plans without restarts never consult incarnations, so
    crash-stop runs stay byte-identical to the crash-stop engine.

    Churn is applied between rounds: the scheduled actions of round [r]
    land at the start of round [r], before that round's deliveries.  A
    message in flight over a link that is down at its delivery round is
    dropped (and traced); a {!send} over a link that is {e already}
    down raises {!Link_down} — unlike a crash or a loss, the sender's
    own link state is locally observable, so churn-aware callers check
    {!link_up} first and treat a down link as loss. *)

type stats = Trace.stats = {
  rounds : int;  (** synchronous rounds executed *)
  messages : int;  (** messages transmitted (delivered, lost, or held) *)
  words : int;  (** total words transmitted *)
  max_message_words : int;  (** length of the longest single message *)
}

val pp_stats : Format.formatter -> stats -> unit

(** {1 Low-level engine} *)

type 'msg t

exception Link_down of { round : int; src : int; dst : int }
(** Raised by {!send} when the link is down under the churn plan. *)

val create :
  ?faults:Fault.t ->
  ?tracer:Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Span.t ->
  Graphlib.Graph.t ->
  'msg t
(** [create ?faults ?tracer g] prepares an idle network on [g].
    [faults] defaults to {!Fault.none}, under which every observable
    behavior (deliveries, statistics, errors) is identical to the
    fault-free engine; [tracer] defaults to no recording.  Churn
    actions scheduled for round 0 are applied immediately, so they
    constrain the protocol's initial sends.

    [metrics] (default {!Obs.Metrics.disabled}) records, per {!step},
    histograms [sim_round_delivered_words] / [sim_round_dropped_words]
    / [sim_round_held_words], and a [link_words] counter per directed
    link (labels [src]/[dst], created at the link's first send).
    Metrics never affect deliveries, statistics, or the trace.

    [spans] (default {!Obs.Span.disabled}) records one causal span per
    transmission: opened at {!send} (ticking the sender's Lamport
    clock), closed as delivered at delivery time (first delivery wins
    for duplicated copies) or as dropped with the drop reason (loss,
    crashed destination, down link, unjoined destination).  A send
    refused before reaching the wire — crashed or unjoined sender —
    opens no span.  Like metrics, spans never affect behavior. *)

val graph : 'msg t -> Graphlib.Graph.t

val faults : 'msg t -> Fault.t
(** The fault plan the network runs under ({!Fault.none} by default). *)

val round : 'msg t -> int
(** The current round number: 0 before the first {!step}, and during a
    delivery callback the round being delivered.  Protocols and the
    tracer read this instead of threading their own counter. *)

val send : 'msg t -> src:int -> dst:int -> words:int -> 'msg -> unit
(** Enqueue a message for delivery at the next {!step}.  If [src] has
    crash-stopped (or has not joined yet), the message is silently
    discarded (and traced as a drop) — a dead or absent node cannot
    put anything on the wire.
    @raise Link_down if the link is down under the churn plan: the
    sender can observe its own link state, so the refusal is loud.
    @raise Invalid_argument if [dst] is not a neighbor of [src], if
    [words < 1], or if [src] already sent to [dst] this round; the
    message names the current round and both endpoints. *)

val link_up : 'msg t -> src:int -> dst:int -> bool
(** The live-edge view: is the link up this round?  [true] whenever the
    plan schedules no churn.
    @raise Invalid_argument if [src]-[dst] is not a network link. *)

val edge_up : 'msg t -> int -> bool
(** {!link_up} by undirected edge identifier. *)

val joined : 'msg t -> int -> bool
(** Has this node joined the network by the current round?  [true]
    whenever the plan schedules no join for it. *)

val step : 'msg t -> (dst:int -> src:int -> 'msg -> unit) -> int
(** Advance one synchronous round: decide the fate of every queued
    message under the fault plan, deliver the surviving ones (and any
    held-back message whose delay expires this round) through the
    callback in deterministic order, and return the number delivered.
    Counts as one round even when nothing was queued. *)

val quiescent : 'msg t -> bool
(** No messages queued or held back for a later round. *)

val run_until_quiescent :
  ?max_rounds:int -> 'msg t -> (dst:int -> src:int -> 'msg -> unit) -> unit
(** Repeated {!step} until no message is in flight.  The callback may
    {!send} further messages.  @raise Invalid_argument after
    [max_rounds] (default [10_000_000]) rounds; the message reports the
    current round, the statistics accumulated so far, and the endpoints
    of the head in-flight message (matching the send errors). *)

val stats : 'msg t -> stats

val take_window_max : 'msg t -> int
(** Length of the longest single message charged since the previous
    [take_window_max] (or since {!create}), and reset the window.
    Unlike the additive stats fields, a maximum cannot be attributed
    to a phase by differencing {!stats} snapshots — this is the
    reset-on-read window the per-phase instrumentation uses.  Reading
    it never affects {!stats}. *)

val add_idle_rounds : 'msg t -> int -> unit
(** Account for rounds that a real execution would spend idle (e.g. a
    fixed-length phase that ended early at quiescence but whose
    schedule the nodes cannot cut short).  Used by protocols that
    charge themselves the analytic schedule. *)

(** {1 Node-program runner} *)

module type PROTOCOL = sig
  type state
  type message

  val message_words : message -> int

  val init : Graphlib.Graph.t -> int -> state * (int * message) list
  (** [init g v] is the initial state of node [v] and the messages it
      sends in the first round (neighbor, payload). *)

  val receive :
    Graphlib.Graph.t ->
    round:int ->
    int ->
    state ->
    (int * message) list ->
    state * (int * message) list
  (** [receive g ~round v st inbox] handles one round at node [v]:
      [inbox] lists (sender, payload) delivered this round.  Called
      only in rounds where [v] has a delivery — or, under {!Pump}, a
      timer due or output {!Pump.poke}d, when [inbox] may be empty — so
      a node program must do nothing on an empty inbox unless its own
      timer or output asks it to. *)
end

(** A protocol that may need rounds to keep ticking while the network
    is quiescent — e.g. a retransmission timer waiting to fire. *)
module type ACTIVE_PROTOCOL = sig
  include PROTOCOL

  val next_due : state -> int
  (** The round at which this node's earliest timer fires, or
      [max_int] when none is armed.  Timers are absolute rounds: a
      [receive] at round [r] must handle every timer due by [r],
      however many rounds passed since the node's previous [receive].
      A node is visited at its [next_due] round even with an empty
      inbox; the run ends when the network is quiescent and no live
      node has a timer armed. *)

  val resume : state -> frozen:int -> state
  (** [resume st ~frozen] is called before a node's first [receive]
      after [frozen] rounds that did not happen for it: it joined late
      ([init] counts as round 0), or it was crashed and restarts now.
      Timers must not count those rounds — a crashed node's timers
      stay frozen until its restart. *)
end

(** The event-driven round driver shared by {!Run_active} and the ARQ
    path of {!Transport}.  A round visits — calls
    [receive] on — only the live nodes with a delivery, with output
    produced outside a visit ({!poke}), or with a timer due
    ({!ACTIVE_PROTOCOL.next_due}), in ascending id order.  Any other
    node's [receive] would send nothing and change nothing, so sends,
    fault draws and traces are those of visiting every live node every
    round, while host cost follows messages and timer fires rather
    than nodes × rounds. *)
module Pump (P : ACTIVE_PROTOCOL) : sig
  type 'msg engine := 'msg t
  type t

  val create : P.message engine -> t
  (** A driver over the given network with no node installed. *)

  val state : t -> int -> P.state option
  (** The node's current state, [None] until {!install}ed. *)

  val install : t -> int -> P.state -> unit
  (** Make the node present with this state (a join, a restart, or a
      fresh incarnation), arm its timer and forget any output {!poke}d
      for it.  Its sends, if any, go through {!post}. *)

  val post : t -> int -> (int * P.message) list -> unit
  (** Put a node's (neighbor, payload) messages on the wire, as a visit
      does with [receive]'s output.  Node programs are churn-oblivious:
      a message over a down link is discarded, i.e. looks like loss. *)

  val poke : t -> int -> unit
  (** The node produced output outside its own visit (the protocol's
      [receive] will pick it up): visit it this round if it comes later
      in the current round's order, next round otherwise. *)

  val step : t -> landed:(int -> unit) -> int list
  (** One round: {!Sim.step} (deliveries fill the inboxes), then
      [landed round] — the caller's joins, restarts or revives for the
      round — then due timers and poked nodes, then the visits to the
      woken live nodes in ascending id order.  Returns the nodes
      visited, ascending. *)

  val idle : t -> live:(int -> bool) -> bool
  (** The network is quiescent and no node satisfying [live] has poked
      output or an armed timer: stepping would change nothing until a
      scheduled event lands. *)
end

module Run_active (P : ACTIVE_PROTOCOL) : sig
  val run :
    ?max_rounds:int ->
    ?faults:Fault.t ->
    ?tracer:Trace.t ->
    ?metrics:Obs.Metrics.t ->
    ?spans:Obs.Span.t ->
    Graphlib.Graph.t ->
    stats * P.state array
  (** Run the protocol to completion on a {!Pump}.  Under a fault plan,
      a node that crashes at round [r] executes no [receive] from round
      [r] on: its state is frozen as of round [r - 1].  If the plan
      restarts it at round [r'], it resumes [receive] from [r'] with
      that frozen state, passed through [resume ~frozen:(r' - r)] first
      (protocols needing amnesia reset themselves); the run is kept
      alive until every scheduled restart has landed.  A node with join
      round [r] is initialized and resumed with [~frozen:(r - 1)] at
      round [r] (its [init] sends go out that round); under churn the
      node programs stay oblivious — a send over a down link is simply
      discarded, i.e. looks like loss.  A node whose join round never
      arrives ends in its initial state.
      @raise Invalid_argument after [max_rounds] rounds (default
      [1_000_000]); the message reports the round and the statistics
      accumulated so far. *)
end

module Run (P : PROTOCOL) : sig
  val run :
    ?max_rounds:int ->
    ?faults:Fault.t ->
    ?tracer:Trace.t ->
    ?metrics:Obs.Metrics.t ->
    ?spans:Obs.Span.t ->
    Graphlib.Graph.t ->
    stats * P.state array
end
