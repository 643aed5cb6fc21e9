module Graph = Graphlib.Graph

let initial_rto = 3
let max_rto = 32
let max_retries = 12

module type SINKS = sig
  val metrics : Obs.Metrics.t
  val spans : Obs.Span.t
end

module Make (P : Sim.PROTOCOL) (O : SINKS) = struct
  (* Instruments, shared by every node of this instantiation (the
     counts are network-wide aggregates). *)
  let m_retrans = Obs.Metrics.counter O.metrics "arq_retransmissions"
  let m_dead = Obs.Metrics.counter O.metrics "arq_dead_letters"
  let m_timer = Obs.Metrics.counter O.metrics "arq_timer_fires"
  let m_ack_latency = Obs.Metrics.histogram O.metrics "arq_ack_latency"
  let m_backoff = Obs.Metrics.counter O.metrics "arq_backoff_escalations"

  (* Causal spans: one [Arq] span per stop-and-wait exchange (first
     transmission → acknowledgement), with each retransmission a
     point-event linked to it, so the critical path can tell a slow hop
     from a lossy one. *)
  let spans = O.spans

  (* A span's name, formatted only when spans are on: a disabled sink
     must allocate nothing. *)
  let seq_name seq =
    if Obs.Span.enabled spans then Printf.sprintf "seq-%d" seq else ""

  type message = { acks : int list; data : (int * P.message) option }

  let message_words { acks; data } =
    let d = match data with Some (_, m) -> 1 + P.message_words m | None -> 0 in
    Stdlib.max 1 (List.length acks + d)

  type peer = {
    nbr : int;
    mutable next_seq : int;
    queue : P.message Queue.t;  (** inner messages awaiting transmission *)
    mutable inflight : (int * P.message) option;  (** stop-and-wait window *)
    mutable rto : int;
    mutable due : int;  (** round the inflight seq's timer fires *)
    mutable retries : int;
    mutable sent_round : int;  (** first transmission of the inflight seq *)
    mutable pending_acks : int list;  (** to piggyback on the next send *)
    mutable upto : int;  (** highest seq delivered inward (stop-and-wait) *)
    mutable span : int;  (** open [Arq] span of the inflight seq, or -1 *)
  }

  type state = {
    v : int;
    mutable inner : P.state;
    peers : peer array;
    index : (int, int) Hashtbl.t;  (** neighbor id -> peers slot *)
    mutable retrans : int;
    mutable dead : int;
    mutable abandoned : int list;  (** peers with >= 1 dead letter *)
    mutable next_due : int;  (** earliest inflight [due], or [max_int] *)
  }

  let inner st = st.inner
  let retransmissions st = st.retrans
  let dead_letters st = st.dead
  let suspected st = st.abandoned

  (* Every visit ends by starting the next queued message on each idle
     link, so a non-empty queue implies an armed timer. *)
  let next_due st = st.next_due

  let link_idle st w =
    match Hashtbl.find_opt st.index w with
    | None -> true
    | Some i ->
        let p = st.peers.(i) in
        p.inflight = None && Queue.is_empty p.queue

  let earliest_due st =
    Array.fold_left
      (fun d p -> if p.inflight <> None then Stdlib.min d p.due else d)
      max_int st.peers

  let peer_of st w =
    match Hashtbl.find_opt st.index w with
    | Some i -> st.peers.(i)
    | None ->
        invalid_arg
          (Printf.sprintf "Reliable: node %d has no neighbor %d" st.v w)

  let enqueue st msgs =
    List.iter (fun (dst, m) -> Queue.add m (peer_of st dst).queue) msgs

  (* Begin transmitting the next queued message, if any. *)
  let start_next ~owner ~round p =
    match Queue.take_opt p.queue with
    | None -> None
    | Some m ->
        let seq = p.next_seq in
        p.next_seq <- seq + 1;
        p.inflight <- Some (seq, m);
        p.rto <- initial_rto;
        p.due <- round + initial_rto;
        p.retries <- 0;
        p.sent_round <- round;
        p.span <-
          Obs.Span.open_span spans ~src:owner ~dst:p.nbr Obs.Span.Arq
            ~name:(seq_name seq)
            ~round;
        Some (seq, m)

  (* The sender side of [p] at a visit: decide what data (if any) goes
     on the wire this round.  A timer is an absolute round, so a visit
     after any number of skipped rounds sees exactly the timers that
     came due meanwhile — and a caller that visits an endpoint at every
     {!next_due} never finds one overdue. *)
  let outgoing st ~round p =
    let data =
      match p.inflight with
      | None -> start_next ~owner:st.v ~round p
      | Some (seq, m) ->
          if p.due > round then None
          else if p.retries >= max_retries then begin
            (* The peer is not answering (crashed, or the link is
               hopeless): abandon, move on. *)
            Obs.Metrics.incr m_timer;
            p.inflight <- None;
            st.dead <- st.dead + 1;
            Obs.Metrics.incr m_dead;
            if not (List.mem p.nbr st.abandoned) then
              st.abandoned <- p.nbr :: st.abandoned;
            Obs.Span.drop spans ~round ~reason:"dead-letter" p.span;
            p.span <- -1;
            start_next ~owner:st.v ~round p
          end
          else begin
            Obs.Prof.enter (Obs.Prof.current ()) "arq_retransmit";
            Obs.Metrics.incr m_timer;
            p.retries <- p.retries + 1;
            (* Truncated doubling.  An escalation is a timeout that
               actually grew the window. *)
            let next = Stdlib.min max_rto (2 * p.rto) in
            if next > p.rto then Obs.Metrics.incr m_backoff;
            p.rto <- next;
            p.due <- round + next;
            st.retrans <- st.retrans + 1;
            Obs.Metrics.incr m_retrans;
            ignore
              (Obs.Span.span spans ~parent:p.span ~src:st.v ~dst:p.nbr
                 Obs.Span.Retransmit
                 ~name:(seq_name seq)
                 ~start_round:round ~stop_round:round);
            Obs.Prof.leave (Obs.Prof.current ());
            Some (seq, m)
          end
    in
    let acks = p.pending_acks in
    p.pending_acks <- [];
    if data = None && acks = [] then None
    else Some (p.nbr, { acks; data })

  (* The timer sweep: every peer's timer is checked here, once per
     visit.  This is the ARQ's per-visit fixed cost, so it gets its own
     region (with retransmissions attributed separately inside it). *)
  let flush st ~round =
    let prof = Obs.Prof.current () in
    Obs.Prof.enter prof "arq_timer_sweep";
    let out =
      Array.fold_left
        (fun out p ->
          match outgoing st ~round p with Some m -> m :: out | None -> out)
        [] st.peers
    in
    st.next_due <- earliest_due st;
    Obs.Prof.leave prof;
    out

  let init g v =
    let nbrs = Array.of_list (Graph.neighbors g v) in
    let peers =
      Array.map
        (fun nbr ->
          {
            nbr;
            next_seq = 0;
            queue = Queue.create ();
            inflight = None;
            rto = initial_rto;
            due = 0;
            retries = 0;
            sent_round = 0;
            pending_acks = [];
            upto = -1;
            span = -1;
          })
        nbrs
    in
    let index = Hashtbl.create (Array.length nbrs) in
    Array.iteri (fun i p -> Hashtbl.replace index p.nbr i) peers;
    let inner, msgs = P.init g v in
    let st =
      {
        v;
        inner;
        peers;
        index;
        retrans = 0;
        dead = 0;
        abandoned = [];
        next_due = max_int;
      }
    in
    enqueue st msgs;
    (st, flush st ~round:0)

  (* Forget everything about one peer's sessions — both directions.
     Called when the peer restarts with a fresh incarnation: its ARQ
     state is gone, so our sequence numbers mean nothing to it (and its
     pre-crash acks must never complete our new transmissions), and the
     delivery watermark must not swallow the reborn peer's restarted
     sequence numbers.  Also clears the peer from [abandoned]: the suspicion it
     earned by dying belongs to the old incarnation.  Callers tracking
     [suspected] deltas positionally must re-baseline after this. *)
  let reset_peer st ~round w =
    match Hashtbl.find_opt st.index w with
    | None -> ()
    | Some i ->
        let p = st.peers.(i) in
        (match p.inflight with
        | Some _ ->
            Obs.Span.drop spans ~round ~reason:"session-reset" p.span
        | None -> ());
        p.span <- -1;
        p.inflight <- None;
        p.next_seq <- 0;
        Queue.clear p.queue;
        p.rto <- initial_rto;
        p.due <- 0;
        p.retries <- 0;
        p.sent_round <- round;
        p.pending_acks <- [];
        p.upto <- -1;
        st.abandoned <- List.filter (fun x -> x <> w) st.abandoned;
        st.next_due <- earliest_due st

  (* The rounds [frozen] did not happen for this endpoint (it was
     crashed, or had not joined), so its armed timers slide by them. *)
  let resume st ~frozen =
    if frozen > 0 then begin
      Array.iter
        (fun p -> if p.inflight <> None then p.due <- p.due + frozen)
        st.peers;
      st.next_due <- earliest_due st
    end;
    st

  let receive g ~round v st inbox =
    let deliveries = ref [] in
    List.iter
      (fun (w, { acks; data }) ->
        let p = peer_of st w in
        List.iter
          (fun a ->
            match p.inflight with
            | Some (seq, _) when seq = a ->
                Obs.Metrics.observe m_ack_latency (round - p.sent_round);
                Obs.Span.close spans ~round p.span;
                p.span <- -1;
                p.inflight <- None;
                p.rto <- initial_rto;
                p.retries <- 0
            | _ -> () (* stale ack from an earlier retransmission *))
          acks;
        match data with
        | None -> ()
        | Some (seq, payload) ->
            (* Ack every receipt — a duplicate means our previous ack
               was lost (or the network duplicated the data). *)
            if not (List.mem seq p.pending_acks) then
              p.pending_acks <- seq :: p.pending_acks;
            if seq > p.upto then begin
              p.upto <- seq;
              deliveries := (w, payload) :: !deliveries
            end)
      inbox;
    let inner, outs = P.receive g ~round v st.inner (List.rev !deliveries) in
    st.inner <- inner;
    enqueue st outs;
    (st, flush st ~round)
end
