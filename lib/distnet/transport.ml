module Graph = Graphlib.Graph

type 'msg handlers = {
  deliver : dst:int -> src:int -> 'msg -> unit;
  suspect : by:int -> int -> unit;
  restart : round:int -> int -> unit;
}

(* The two paths run engines of different wire types (bare messages vs
   ARQ frames), so the engine is existential and the path-specific
   operations are closures over it. *)
type 'msg t =
  | T : {
      net : 'wire Sim.t;
      send : src:int -> dst:int -> 'msg -> unit;
      step : 'msg handlers -> unit;
      idle : unit -> bool;
      link_idle : int -> int -> bool;
      arq_totals : unit -> int * int;  (** retransmissions, dead letters *)
    }
      -> 'msg t

let bare ~faults ?tracer ~metrics ~spans ~words g =
  let net = Sim.create ~faults ?tracer ~metrics ~spans g in
  T
    {
      net;
      send = (fun ~src ~dst m -> Sim.send net ~src ~dst ~words:(words m) m);
      step = (fun h -> ignore (Sim.step net h.deliver));
      idle = (fun () -> Sim.quiescent net);
      link_idle = (fun _ _ -> true);
      arq_totals = (fun () -> (0, 0));
    }

let no_handlers =
  {
    deliver = (fun ~dst:_ ~src:_ _ -> ());
    suspect = (fun ~by:_ _ -> ());
    restart = (fun ~round:_ _ -> ());
  }

let arq (type m) ~faults ?tracer ~metrics ~spans ~(words : m -> int) g : m t =
  let n = Graph.n g in
  (* The handlers of the step in progress: a visit runs inside it. *)
  let h = ref no_handlers in
  (* The wrapped inner protocol is a mailbox: a visit hands its
     deliveries to the protocol and drains what [send] queued. *)
  let outbox : (int * m) list array = Array.make n [] in
  let module P = struct
    type state = int
    type message = m

    let message_words = words
    let init _ v = (v, [])

    let receive _ ~round:_ v st inbox =
      List.iter (fun (src, m) -> !h.deliver ~dst:v ~src m) inbox;
      let outs = List.rev outbox.(v) in
      outbox.(v) <- [];
      (st, outs)
  end in
  let module R =
    Reliable.Make
      (P)
      (struct
        let metrics = metrics
        let spans = spans
      end)
  in
  let module Pump = Sim.Pump (R) in
  let net : R.message Sim.t = Sim.create ~faults ?tracer ~metrics ~spans g in
  let pump = Pump.create net in
  let state v = Option.get (Pump.state pump v) in
  for v = 0 to n - 1 do
    Pump.install pump v (fst (R.init g v))
  done;
  let live v = not (Fault.crashed faults ~round:(Sim.round net) v) in
  (* How many entries of each node's [R.suspected] (newest first) were
     reported.  Only a visit abandons a transmission, so only this
     round's visited nodes can have fresh ones. *)
  let suspects_seen = Array.make n 0 in
  let fold_suspicions v =
    let s = R.suspected (state v) in
    let fresh = List.length s - suspects_seen.(v) in
    if fresh > 0 then begin
      suspects_seen.(v) <- suspects_seen.(v) + fresh;
      List.filteri (fun i _ -> i < fresh) s
      |> List.rev
      |> List.iter (fun w -> !h.suspect ~by:v w)
    end
  in
  (* A restart is amnesia: fresh ARQ state on both sides of every
     incident link, then the protocol's own half. *)
  let revive ~round v =
    outbox.(v) <- [];
    Pump.install pump v (fst (R.init g v));
    suspects_seen.(v) <- 0;
    Graph.iter_neighbors g v (fun w _ ->
        R.reset_peer (state w) ~round v;
        suspects_seen.(w) <- List.length (R.suspected (state w)));
    !h.restart ~round v
  in
  let pending_revives = ref (Fault.restart_schedule faults) in
  let landed round =
    match !pending_revives with
    | (r, _) :: _ when r <= round ->
        let landed, rest =
          List.partition (fun (r, _) -> r <= round) !pending_revives
        in
        pending_revives := rest;
        List.iter (fun (_, v) -> revive ~round v) landed
    | _ -> ()
  in
  let arq_totals () =
    let retrans = ref 0 and dead = ref 0 in
    for v = 0 to n - 1 do
      if live v then begin
        retrans := !retrans + R.retransmissions (state v);
        dead := !dead + R.dead_letters (state v)
      end
    done;
    (!retrans, !dead)
  in
  T
    {
      net;
      send =
        (fun ~src ~dst m ->
          Pump.poke pump src;
          outbox.(src) <- (dst, m) :: outbox.(src));
      step =
        (fun handlers ->
          h := handlers;
          List.iter fold_suspicions (Pump.step pump ~landed));
      idle = (fun () -> Pump.idle pump ~live);
      link_idle =
        (fun v w ->
          R.link_idle (state v) w
          && not (List.exists (fun (d, _) -> d = w) outbox.(v)));
      arq_totals;
    }

let create ?(faults = Fault.none) ?tracer ?(metrics = Obs.Metrics.disabled)
    ?(spans = Obs.Span.disabled) ~words g =
  if Fault.is_none faults then bare ~faults ?tracer ~metrics ~spans ~words g
  else arq ~faults ?tracer ~metrics ~spans ~words g

let send (T t) ~src ~dst m = t.send ~src ~dst m
let step (T t) h = t.step h
let idle (T t) = t.idle ()
let link_idle (T t) v w = t.link_idle v w
let round (T t) = Sim.round t.net
let stats (T t) = Sim.stats t.net
let take_window_max (T t) = Sim.take_window_max t.net
let edge_up (T t) e = Sim.edge_up t.net e
let retransmissions (T t) = fst (t.arq_totals ())
let dead_letters (T t) = snd (t.arq_totals ())
