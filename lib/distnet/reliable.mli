(** Reliable delivery over a lossy network: an ack/retransmit wrapper
    that lifts any {!Sim.PROTOCOL} node program onto a faulty network
    unchanged.

    Per directed neighbor link the wrapper runs stop-and-wait ARQ:
    outgoing inner-protocol messages are queued FIFO, transmitted one
    at a time with a sequence number, and retransmitted on a timeout
    with exponential backoff until acknowledged.  Acknowledgements are
    piggybacked on data traffic when possible and echoed on every
    (re)receipt, so a lost ack is repaired by the sender's retry.  The
    receiver keeps one watermark per link, the highest sequence number
    delivered (stop-and-wait starts a sequence number only after the
    previous one is acknowledged or abandoned), making delivery to the
    inner protocol idempotent under duplication and retransmission.

    Each wire message costs [1] word per carried ack plus, when data
    is present, [1] word of sequence number plus the inner payload's
    words — so [Sim.stats] keeps honest word accounting including
    every retransmission.

    A transmission abandoned after {!max_retries} unacknowledged tries
    (e.g. to a crashed neighbor) is counted in {!dead_letters}; this
    bounds the run when a peer is gone forever. *)

(** {1 Retransmission policy}

    Rounds are the time unit.  A message's first timeout is
    {!initial_rto}; each timeout doubles it, truncated at {!max_rto};
    after {!max_retries} retransmissions the message is abandoned.
    Timeouts that actually grow the window are counted in the
    [arq_backoff_escalations] metric. *)

val initial_rto : int
(** First timeout: [3] rounds, one round past the loss-free ack round
    trip. *)

val max_rto : int
(** Backoff ceiling: [32] rounds. *)

val max_retries : int
(** Retransmissions before a message is abandoned: [12]. *)

(** The observability sinks of one instantiation, fixed when {!Make}
    is applied.  Purely observational — never change protocol
    behavior. *)
module type SINKS = sig
  val metrics : Obs.Metrics.t
  (** Network-wide aggregates: counters [arq_retransmissions] /
      [arq_dead_letters] / [arq_timer_fires] /
      [arq_backoff_escalations] and an [arq_ack_latency] histogram
      (rounds from a message's first transmission to its
      acknowledgement).  {!Obs.Metrics.disabled} records nothing. *)

  val spans : Obs.Span.t
  (** One [Arq] span per stop-and-wait exchange, opened at the seq's
      first transmission and closed at its acknowledgement (dropped
      with reason ["dead-letter"] on abandonment), plus one
      [Retransmit] point-event per retransmission, linked via [parent]
      to the exchange it retried.  {!Obs.Span.disabled} records
      nothing. *)
end

module Make (P : Sim.PROTOCOL) (_ : SINKS) : sig
  include Sim.ACTIVE_PROTOCOL

  val inner : state -> P.state
  (** The wrapped protocol's state at this node. *)

  val retransmissions : state -> int
  (** Data retransmissions this node has performed. *)

  val dead_letters : state -> int
  (** Transmissions this node abandoned after {!max_retries}. *)

  val link_idle : state -> int -> bool
  (** No inner message queued or awaiting acknowledgement toward that
      neighbor (pending acks don't count).  Streaming protocols use
      this to pace batch emission: offering the next batch only on an
      idle link keeps their per-round word budget honest even though
      the ARQ layer, not the protocol, owns the wire. *)

  val suspected : state -> int list
  (** Neighbors to which at least one transmission was abandoned.  This
      doubles as the crash-stop failure detector that {!Recovery} and
      the fault-tolerant skeleton consume, but it can be wrong about a
      live peer: a try fails when the data {e or} its ack is lost, so
      under independent drop [p] a live peer is abandoned with
      probability [(1 - (1 - p)^2)^(max_retries + 1)] per message
      (about [1.7e-6] at [p = 0.2]).  The suspicion is one-sided — the
      peer does not learn of it — so a consumer that waits on the
      suspecting side must be told; the skeleton does this with its
      [Cut] answer to a probe. *)

  val next_due : state -> int
  (** The round at which this endpoint's earliest retransmit timer
      fires, or [max_int] when none is armed.  A {!receive} at round
      [r] retransmits (or abandons) every inflight message whose timer
      is due by [r], however many rounds passed since the endpoint's
      previous visit, so a driver that visits an endpoint only when it
      has a delivery, new inner messages, or [next_due <= r] ({!Sim.Pump})
      behaves exactly like one that visits it every round.  [resume]
      slides every armed timer by the [frozen] rounds. *)

  val reset_peer : state -> round:int -> int -> unit
  (** [reset_peer st ~round w] forgets every ARQ session toward and
      from neighbor [w]: the in-flight transmission (its span dropped
      with reason ["session-reset"]), the send queue, sequence numbers
      (back to 0), pending and remembered acks, the receive-side
      delivery watermark, and [w]'s entry in {!suspected}.  Call it on both sides
      of a link when one endpoint restarts with a fresh incarnation —
      the reborn node must never consume its predecessor's acks, and
      its restarted sequence numbers must not be swallowed as
      duplicates.  Callers that consume {!suspected} as a positional
      delta must re-baseline their cursor afterwards.  A [w] that is
      not a neighbor is ignored. *)
end
