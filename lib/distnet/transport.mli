(** The wire a multi-phase protocol runs over: the bare {!Sim} engine
    on a loss-free network, or a per-link {!Reliable} ARQ on a {!Sim.Pump}
    under any fault plan.  Which one is decided once, by {!create}, from
    [Fault.is_none faults]; a protocol written against this interface
    never branches on it.

    The protocol keeps its own state and drives phases itself: it
    {!send}s from anywhere (a delivery handler, a phase driver, a
    restart), and each {!step} advances one round, calling back into the
    protocol through a {!handlers} record.

    {b Loss-free.}  Messages ride the engine bare, as in the paper's
    model: no acks, no sequence numbers, so word accounting and traces
    are those of a hand-driven {!Sim}.  [suspect] and [restart] never
    fire; {!link_idle} is always true.

    {b ARQ.}  Every link runs stop-and-wait ({!Reliable.Make}), whose
    abandoned transmissions double as the failure detector: a fresh
    abandonment by [by] towards [w] is reported as [suspect ~by w]
    after the round's visits.  {!send} queues on an outbox that the
    sender's next visit drains, and the {!Sim.Pump} visits a node only
    when it has a delivery, queued output or a retransmit timer due.
    Under churn a down link swallows the frame — the ARQ retransmits,
    and persistent downtime ripens into a suspicion exactly like a
    crashed peer.  When a scheduled restart lands, the node's ARQ
    sessions are reset on both sides of every incident link (the reborn
    node must not consume its predecessor's acks, nor have its
    restarted sequence numbers swallowed as duplicates), its outbox is
    emptied, and then [restart ~round v] lets the protocol rebuild its
    own half. *)

type 'msg handlers = {
  deliver : dst:int -> src:int -> 'msg -> unit;
      (** a protocol message arrived, exactly once *)
  suspect : by:int -> int -> unit;
      (** [by] abandoned a transmission to this neighbor (ARQ only) *)
  restart : round:int -> int -> unit;
      (** the node restarted this round with fresh ARQ sessions (ARQ
          only; nothing addressed to its old incarnation is delivered) *)
}

type 'msg t

val create :
  ?faults:Fault.t ->
  ?tracer:Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Span.t ->
  words:('msg -> int) ->
  Graphlib.Graph.t ->
  'msg t
(** A transport over a fresh {!Sim} engine on the graph; the sinks go
    to the engine and, on the ARQ path, to {!Reliable.Make}.  [words]
    is a message's length in words. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
val step : 'msg t -> 'msg handlers -> unit
(** One round.  Deliveries, suspicions and restarts arrive through the
    handlers, in the engine's deterministic order. *)

val idle : 'msg t -> bool
(** Nothing in flight and (ARQ) no non-crashed node with queued output
    or an armed timer: stepping would change nothing until a scheduled
    event lands. *)

val link_idle : 'msg t -> int -> int -> bool
(** [link_idle t v w]: nothing from [v] to [w] is queued or awaiting an
    acknowledgement — a streaming protocol offers its next batch only
    then, which keeps its per-round word budget honest. *)

val round : 'msg t -> int
val stats : 'msg t -> Sim.stats

val take_window_max : 'msg t -> int
(** {!Sim.take_window_max} of the engine. *)

val edge_up : 'msg t -> int -> bool
(** {!Sim.edge_up} of the engine. *)

val retransmissions : 'msg t -> int
(** ARQ data retransmissions, summed over the nodes not crashed now
    (0 loss-free). *)

val dead_letters : 'msg t -> int
(** ARQ transmissions abandoned, summed like {!retransmissions}. *)
