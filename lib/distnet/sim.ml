module Graph = Graphlib.Graph

type stats = Trace.stats = {
  rounds : int;
  messages : int;
  words : int;
  max_message_words : int;
}

let pp_stats ppf s =
  Format.fprintf ppf "rounds=%d messages=%d words=%d max_msg=%d words" s.rounds
    s.messages s.words s.max_message_words

(* [span] is the causal span opened at send time (-1 when span
   recording is off); a delayed or duplicated copy keeps the id of the
   original transmission.  [inc_src]/[inc_dst] stamp the incarnations
   of both endpoints as of the send round: delivery discards the
   message if either endpoint has since moved to a new incarnation
   (both are 0 under restart-free plans). *)
type 'msg envelope = {
  src : int;
  dst : int;
  words : int;
  span : int;
  inc_src : int;
  inc_dst : int;
  payload : 'msg;
}

exception Link_down of { round : int; src : int; dst : int }

let () =
  Printexc.register_printer (function
    | Link_down { round; src; dst } ->
        Some
          (Printf.sprintf "Sim.Link_down(round %d: link %d-%d is down)" round
             src dst)
    | _ -> None)

type 'msg t = {
  g : Graph.t;
  (* Directed-link slots: edge e gives slot 2e for (u -> v) and 2e+1
     for (v -> u), with u < v.  [link] resolves (src, dst) to a slot in
     O(1) via a per-source hashtable built once. *)
  link : (int, int) Hashtbl.t;
  last_sent : int array;  (** per slot: round counter of the last send *)
  faults : Fault.t;
  tracer : Trace.t option;
  (* Dynamic topology.  [dynamic] is false for churn-free plans, in
     which case no per-message liveness check runs — the static paths
     stay byte-identical to the seed engine. *)
  dynamic : bool;
  (* [restarting] is false for restart-free plans, in which case no
     incarnation is ever consulted and the stale-delivery check never
     runs — crash-stop runs stay byte-identical to before. *)
  restarting : bool;
  edge_alive : bool array;  (** per undirected edge *)
  mutable pending_churn : (int * Fault.action) list;
  (* Messages held back by a Delay fate, keyed by delivery round. *)
  delayed : (int, 'msg envelope list) Hashtbl.t;
  mutable delayed_count : int;
  (* Crash/restart events not yet emitted to the tracer, by round. *)
  mutable pending_crashes : (int * int) list;
  mutable pending_restarts : (int * int) list;
  mutable epoch : int;
  mutable outbox : 'msg envelope list;
  mutable rounds : int;
  mutable messages : int;
  mutable words : int;
  mutable max_message_words : int;
  (* Observability.  [metrics] defaults to the no-op sink; the
     per-round histograms and per-link counters below are no-op
     instruments in that case, so the disabled path costs one tag
     check.  [window_max] tracks the longest message charged since the
     last {!take_window_max} — it is what lets a caller attribute peak
     message length to a phase, since a maximum (unlike the other
     stats fields) cannot be recovered from before/after deltas. *)
  metrics : Obs.Metrics.t;
  h_delivered : Obs.Metrics.histogram;
  h_dropped : Obs.Metrics.histogram;
  h_held : Obs.Metrics.histogram;
  link_load : Obs.Metrics.counter option array;
  mutable window_max : int;
  (* Causal spans: one per transmission, opened at send and closed at
     delivery (or drop).  Defaults to the no-op sink. *)
  spans : Obs.Span.t;
  (* Machine-cost profiling.  Captured from the ambient sink at
     creation; the default is the no-op sink, so unprofiled runs pay
     one tag check per region. *)
  prof : Obs.Prof.t;
}

let key ~n src dst = (src * n) + dst

let trace t ~round kind ~src ~dst ~words =
  match t.tracer with
  | None -> ()
  | Some tr -> Trace.record tr { Trace.round; kind; src; dst; words }

let edge_of_link t u v =
  match Hashtbl.find_opt t.link (key ~n:(Graph.n t.g) u v) with
  | Some slot -> slot / 2
  | None ->
      invalid_arg
        (Printf.sprintf "Sim: churn references edge %d-%d not in the graph" u v)

let flip_link t ~round ~up (u, v) =
  t.edge_alive.(edge_of_link t u v) <- up;
  trace t ~round
    (if up then Trace.Edge_up else Trace.Edge_down)
    ~src:u ~dst:v ~words:0

let apply_action t ~round = function
  | Fault.Act_edge_down { u; v } -> flip_link t ~round ~up:false (u, v)
  | Fault.Act_edge_up { u; v } -> flip_link t ~round ~up:true (u, v)
  | Fault.Act_partition { links; _ } ->
      trace t ~round Trace.Partition ~src:(-1) ~dst:(-1)
        ~words:(List.length links);
      List.iter (flip_link t ~round ~up:false) links
  | Fault.Act_heal { links } ->
      trace t ~round Trace.Heal ~src:(-1) ~dst:(-1) ~words:(List.length links);
      List.iter (flip_link t ~round ~up:true) links
  | Fault.Act_join v -> trace t ~round Trace.Join ~src:v ~dst:(-1) ~words:0

(* Apply every scheduled churn action whose round has arrived.  Actions
   land at the {e start} of their round, before that round's
   deliveries: a message in flight over a link downed this round is
   dropped at delivery time. *)
let apply_churn t ~round =
  Obs.Prof.enter t.prof "sim_churn";
  let rec go = function
    | (r, act) :: rest when r <= round ->
        apply_action t ~round:r act;
        go rest
    | rest -> t.pending_churn <- rest
  in
  go t.pending_churn;
  Obs.Prof.leave t.prof

let create ?(faults = Fault.none) ?tracer ?(metrics = Obs.Metrics.disabled)
    ?(spans = Obs.Span.disabled) g =
  let n = Graph.n g in
  let link = Hashtbl.create (4 * Graph.m g) in
  Graph.iter_edges g (fun e u v ->
      Hashtbl.replace link (key ~n u v) (2 * e);
      Hashtbl.replace link (key ~n v u) ((2 * e) + 1));
  let t =
    {
      g;
      link;
      last_sent = Array.make (Stdlib.max 1 (2 * Graph.m g)) (-1);
      faults;
      tracer;
      dynamic = Fault.has_churn faults;
      restarting = Fault.has_restarts faults;
      edge_alive = Array.make (Stdlib.max 1 (Graph.m g)) true;
      pending_churn = Fault.churn_schedule faults;
      delayed = Hashtbl.create 16;
      delayed_count = 0;
      pending_crashes = Fault.crash_schedule faults;
      pending_restarts = Fault.restart_schedule faults;
      epoch = 0;
      outbox = [];
      rounds = 0;
      messages = 0;
      words = 0;
      max_message_words = 0;
      metrics;
      h_delivered = Obs.Metrics.histogram metrics "sim_round_delivered_words";
      h_dropped = Obs.Metrics.histogram metrics "sim_round_dropped_words";
      h_held = Obs.Metrics.histogram metrics "sim_round_held_words";
      link_load = Array.make (Stdlib.max 1 (2 * Graph.m g)) None;
      window_max = 0;
      spans;
      prof = Obs.Prof.current ();
    }
  in
  (* Round-0 churn (e.g. an edge down from the start) must constrain
     the init sends, which happen before the first step. *)
  if t.dynamic then apply_churn t ~round:0;
  t

let graph t = t.g
let faults t = t.faults
let round t = t.rounds

let edge_up t e =
  if e < 0 || e >= Graph.m t.g then invalid_arg "Sim.edge_up: no such edge";
  t.edge_alive.(e)

let link_up t ~src ~dst =
  match Hashtbl.find_opt t.link (key ~n:(Graph.n t.g) src dst) with
  | Some slot -> t.edge_alive.(slot / 2)
  | None ->
      invalid_arg
        (Printf.sprintf "Sim.link_up: %d -> %d is not a network link" src dst)

let joined t v = Fault.joined t.faults ~round:t.rounds v

let send t ~src ~dst ~words payload =
  if words < 1 then invalid_arg "Sim.send: words must be >= 1";
  match Hashtbl.find_opt t.link (key ~n:(Graph.n t.g) src dst) with
  | None ->
      invalid_arg
        (Printf.sprintf "Sim.send: round %d: %d -> %d is not a network link"
           t.rounds src dst)
  | Some slot ->
      if Fault.crashed t.faults ~round:t.rounds src then
        (* A crashed node cannot put anything on the wire; the refusal
           is silent so fault-oblivious drivers need no special case. *)
        trace t ~round:t.rounds (Trace.Drop Trace.Src_crashed) ~src ~dst ~words
      else if t.dynamic && not (Fault.joined t.faults ~round:t.rounds src) then
        (* Likewise a node that has not joined yet. *)
        trace t ~round:t.rounds (Trace.Drop Trace.Not_joined) ~src ~dst ~words
      else if t.dynamic && not t.edge_alive.(slot / 2) then
        (* Unlike a crash, a down link is visible to the sender (its
           NIC reports no carrier), so the refusal is loud: churn-aware
           callers check {!link_up} first and treat down as loss. *)
        raise (Link_down { round = t.rounds; src; dst })
      else begin
        if t.last_sent.(slot) = t.epoch then
          invalid_arg
            (Printf.sprintf
               "Sim.send: round %d: %d already sent to %d this round" t.rounds
               src dst);
        t.last_sent.(slot) <- t.epoch;
        Obs.Prof.enter t.prof "sim_send";
        trace t ~round:t.rounds Trace.Send ~src ~dst ~words;
        if Obs.Metrics.enabled t.metrics then begin
          let c =
            match t.link_load.(slot) with
            | Some c -> c
            | None ->
                let c =
                  Obs.Metrics.counter t.metrics "link_words"
                    ~labels:
                      [ ("src", string_of_int src); ("dst", string_of_int dst) ]
                in
                t.link_load.(slot) <- Some c;
                c
          in
          Obs.Metrics.add c words
        end;
        let span = Obs.Span.message t.spans ~round:t.rounds ~src ~dst ~words in
        let inc_src, inc_dst =
          if t.restarting then
            ( Fault.incarnation t.faults ~round:t.rounds src,
              Fault.incarnation t.faults ~round:t.rounds dst )
          else (0, 0)
        in
        t.outbox <- { src; dst; words; span; inc_src; inc_dst; payload } :: t.outbox;
        Obs.Prof.leave t.prof
      end

let quiescent t = t.outbox = [] && t.delayed_count = 0

(* Every message (or duplicate copy) put on the wire is charged to the
   statistics at the step that processes it — delivered, lost, or held
   back alike: transmission is the cost the network pays.  With the
   loss-free plan this is exactly the seed engine's delivery-time
   accounting. *)
let charge t (e : 'msg envelope) =
  t.messages <- t.messages + 1;
  t.words <- t.words + e.words;
  if e.words > t.max_message_words then t.max_message_words <- e.words;
  if e.words > t.window_max then t.window_max <- e.words

let take_window_max t =
  let m = t.window_max in
  t.window_max <- 0;
  m

let step t deliver =
  let batch = List.rev t.outbox in
  t.outbox <- [];
  t.epoch <- t.epoch + 1;
  t.rounds <- t.rounds + 1;
  let round = t.rounds in
  (* Emit crash events for nodes whose crash round has arrived. *)
  let rec crashes = function
    | (r, v) :: rest when r <= round ->
        trace t ~round:r Trace.Crash ~src:v ~dst:(-1) ~words:0;
        crashes rest
    | rest -> t.pending_crashes <- rest
  in
  crashes t.pending_crashes;
  if t.restarting then begin
    let rec restarts = function
      | (r, v) :: rest when r <= round ->
          trace t ~round:r Trace.Restart ~src:v ~dst:(-1)
            ~words:(Fault.incarnation t.faults ~round:r v);
          restarts rest
      | rest -> t.pending_restarts <- rest
    in
    restarts t.pending_restarts
  end;
  if t.dynamic then apply_churn t ~round;
  let count = ref 0 in
  let delivered_w = ref 0 and dropped_w = ref 0 and held_w = ref 0 in
  let deliver_now (e : 'msg envelope) =
    if Fault.crashed t.faults ~round e.dst then begin
      dropped_w := !dropped_w + e.words;
      trace t ~round (Trace.Drop Trace.Dst_crashed) ~src:e.src ~dst:e.dst
        ~words:e.words;
      Obs.Span.drop t.spans ~round ~reason:"dst-crashed" e.span
    end
    else if t.dynamic && not t.edge_alive.(edge_of_link t e.src e.dst) then begin
      dropped_w := !dropped_w + e.words;
      trace t ~round (Trace.Drop Trace.Link_down) ~src:e.src ~dst:e.dst
        ~words:e.words;
      Obs.Span.drop t.spans ~round ~reason:"link-down" e.span
    end
    else if t.dynamic && not (Fault.joined t.faults ~round e.dst) then begin
      dropped_w := !dropped_w + e.words;
      trace t ~round (Trace.Drop Trace.Not_joined) ~src:e.src ~dst:e.dst
        ~words:e.words;
      Obs.Span.drop t.spans ~round ~reason:"not-joined" e.span
    end
    else if
      t.restarting
      && (Fault.incarnation t.faults ~round e.src <> e.inc_src
         || Fault.incarnation t.faults ~round e.dst <> e.inc_dst)
    then begin
      (* The message crossed a crash/restart boundary in flight: it was
         sent by, or addressed to, an incarnation that is no longer
         current.  A reborn node must never consume its predecessor's
         traffic (and nobody should hear a ghost), so the engine
         discards it like a loss — but with its own reason, so replay
         and audit can tell them apart. *)
      dropped_w := !dropped_w + e.words;
      trace t ~round (Trace.Drop Trace.Stale) ~src:e.src ~dst:e.dst
        ~words:e.words;
      Obs.Span.drop t.spans ~round ~reason:"stale-incarnation" e.span
    end
    else begin
      incr count;
      delivered_w := !delivered_w + e.words;
      trace t ~round Trace.Deliver ~src:e.src ~dst:e.dst ~words:e.words;
      (* First delivery wins: a duplicate copy of an already delivered
         span leaves the span untouched. *)
      Obs.Span.deliver t.spans ~round e.span;
      deliver ~dst:e.dst ~src:e.src e.payload
    end
  in
  let hold (e : 'msg envelope) ~until =
    held_w := !held_w + e.words;
    Hashtbl.replace t.delayed until
      (e :: Option.value ~default:[] (Hashtbl.find_opt t.delayed until));
    t.delayed_count <- t.delayed_count + 1
  in
  Obs.Prof.enter t.prof "sim_deliver";
  (* Held-back messages whose delay expires this round arrive first. *)
  (match Hashtbl.find_opt t.delayed round with
  | None -> ()
  | Some held ->
      Hashtbl.remove t.delayed round;
      let held = List.rev held in
      t.delayed_count <- t.delayed_count - List.length held;
      List.iter deliver_now held);
  List.iter
    (fun (e : 'msg envelope) ->
      match Fault.fate t.faults ~round ~src:e.src ~dst:e.dst with
      | Fault.Lost ->
          charge t e;
          dropped_w := !dropped_w + e.words;
          trace t ~round (Trace.Drop Trace.Loss) ~src:e.src ~dst:e.dst
            ~words:e.words;
          Obs.Span.drop t.spans ~round ~reason:"loss" e.span
      | Fault.Pass { dup; delay } ->
          charge t e;
          if dup then begin
            charge t e;
            trace t ~round Trace.Dup ~src:e.src ~dst:e.dst ~words:e.words
          end;
          if delay > 0 then begin
            trace t ~round (Trace.Delay delay) ~src:e.src ~dst:e.dst
              ~words:e.words;
            hold e ~until:(round + delay);
            if dup then hold e ~until:(round + delay)
          end
          else begin
            deliver_now e;
            if dup then deliver_now e
          end)
    batch;
  Obs.Prof.leave t.prof;
  if Obs.Metrics.enabled t.metrics then begin
    Obs.Metrics.observe t.h_delivered !delivered_w;
    Obs.Metrics.observe t.h_dropped !dropped_w;
    Obs.Metrics.observe t.h_held !held_w
  end;
  Obs.Prof.round_mark t.prof ~round;
  !count

let stats t =
  {
    rounds = t.rounds;
    messages = t.messages;
    words = t.words;
    max_message_words = t.max_message_words;
  }

let budget_exhausted t where =
  (* Like the send errors, the exception names the round and — when a
     message is still queued — the endpoints it was travelling between,
     so a stuck protocol is diagnosable from the message alone. *)
  let in_flight =
    match t.outbox with
    | { src; dst; _ } :: _ ->
        Printf.sprintf ", %d in flight (head %d -> %d)"
          (List.length t.outbox + t.delayed_count)
          src dst
    | [] ->
        if t.delayed_count > 0 then
          Printf.sprintf ", %d held back" t.delayed_count
        else ""
  in
  invalid_arg
    (Format.asprintf "%s: round %d: budget exhausted (%a)%s" where t.rounds
       pp_stats (stats t) in_flight)

let run_until_quiescent ?(max_rounds = 10_000_000) t deliver =
  let budget = ref max_rounds in
  while not (quiescent t) do
    if !budget <= 0 then budget_exhausted t "Sim.run_until_quiescent";
    decr budget;
    ignore (step t deliver)
  done

let add_idle_rounds t k =
  if k < 0 then invalid_arg "Sim.add_idle_rounds: negative";
  t.rounds <- t.rounds + k

module type PROTOCOL = sig
  type state
  type message

  val message_words : message -> int

  val init : Graphlib.Graph.t -> int -> state * (int * message) list

  val receive :
    Graphlib.Graph.t ->
    round:int ->
    int ->
    state ->
    (int * message) list ->
    state * (int * message) list
end

module type ACTIVE_PROTOCOL = sig
  include PROTOCOL

  val next_due : state -> int
  val resume : state -> frozen:int -> state
end

module Pump (P : ACTIVE_PROTOCOL) = struct
  type nonrec t = {
    net : P.message t;
    states : P.state option array;  (** [None] until installed *)
    inboxes : (int * P.message) list array;  (** this round's deliveries *)
    runq : int Util.Heap.t;  (** this round's wake set, keyed by id *)
    queued : int array;  (** round a node last entered [runq] *)
    timers : int Util.Heap.t;  (** (due round, node) *)
    pushed_due : int array;  (** last key pushed to [timers] per node *)
    poked : bool array;  (** output produced outside the node's visits *)
    mutable mail : int list;  (** poked before the cursor: next round *)
    mutable cursor : int;  (** the node being visited, or -1 *)
  }

  let create net =
    let n = Graph.n net.g in
    {
      net;
      states = Array.make n None;
      inboxes = Array.make n [];
      runq = Util.Heap.create ();
      queued = Array.make n (-1);
      timers = Util.Heap.create ();
      pushed_due = Array.make n max_int;
      poked = Array.make n false;
      mail = [];
      cursor = -1;
    }

  let state p v = p.states.(v)

  let wake p v =
    if p.queued.(v) <> p.net.rounds then begin
      p.queued.(v) <- p.net.rounds;
      Util.Heap.push p.runq ~key:v v
    end

  (* Every node with an armed timer keeps an entry in [timers], keyed
     by its [next_due] or by an earlier round (the protocol may have
     pushed the timer back since). *)
  let arm p v st =
    let due = P.next_due st in
    if due <> max_int && due <> p.pushed_due.(v) then begin
      p.pushed_due.(v) <- due;
      Util.Heap.push p.timers ~key:due v
    end

  let install p v st =
    p.states.(v) <- Some st;
    p.poked.(v) <- false;
    arm p v st

  (* Node programs are churn-oblivious: a send over a down link simply
     never makes it onto the wire (loss, as far as they can tell). *)
  let post p v msgs =
    List.iter
      (fun (dst, m) ->
        if (not p.net.dynamic) || link_up p.net ~src:v ~dst then
          send p.net ~src:v ~dst ~words:(P.message_words m) m)
      msgs

  (* Output by a node later in this round's order is visited this
     round, as an all-nodes sweep would; by the visited node itself, by
     its own visit; by any other node, next round. *)
  let poke p v =
    if v <> p.cursor && not p.poked.(v) then begin
      p.poked.(v) <- true;
      if p.cursor < 0 || v < p.cursor then p.mail <- v :: p.mail
      else wake p v
    end

  let visit p ~round v st =
    let inbox = List.rev p.inboxes.(v) in
    p.inboxes.(v) <- [];
    p.poked.(v) <- false;
    p.cursor <- v;
    let st', msgs = P.receive p.net.g ~round v st inbox in
    if st' != st then p.states.(v) <- Some st';
    post p v msgs;
    arm p v st'

  let step p ~landed =
    ignore
      (step p.net (fun ~dst ~src m ->
           if p.inboxes.(dst) = [] then wake p dst;
           p.inboxes.(dst) <- (src, m) :: p.inboxes.(dst)));
    let round = p.net.rounds in
    landed round;
    let rec due_timers () =
      match Util.Heap.peek_min p.timers with
      | Some (d, v) when d <= round ->
          ignore (Util.Heap.pop_min p.timers);
          if p.pushed_due.(v) = d then p.pushed_due.(v) <- max_int;
          (match p.states.(v) with
          | Some st -> if P.next_due st <= round then wake p v else arm p v st
          | None -> ());
          due_timers ()
      | _ -> ()
    in
    due_timers ();
    List.iter (wake p) p.mail;
    p.mail <- [];
    (* A woken node with nothing to do would send nothing and change
       nothing, so it is skipped. *)
    let rec drain visited =
      match Util.Heap.pop_min p.runq with
      | None -> List.rev visited
      | Some (_, v) -> (
          match p.states.(v) with
          | Some st when not (Fault.crashed p.net.faults ~round v) ->
              if p.inboxes.(v) <> [] || p.poked.(v) || P.next_due st <= round
              then begin
                visit p ~round v st;
                drain (v :: visited)
              end
              else drain visited
          | _ ->
              p.inboxes.(v) <- [];
              drain visited)
    in
    let visited = drain [] in
    p.cursor <- -1;
    visited

  let idle p ~live =
    quiescent p.net
    && (not (List.exists (fun v -> live v && p.poked.(v)) p.mail))
    && not
         (Util.Heap.exists p.timers (fun v ->
              live v
              &&
              match p.states.(v) with
              | Some st -> P.next_due st <> max_int
              | None -> false))
end

module Run_active (P : ACTIVE_PROTOCOL) = struct
  module Pump = Pump (P)

  let run ?(max_rounds = 1_000_000) ?faults ?tracer ?metrics ?spans g =
    let n = Graph.n g in
    let t = create ?faults ?tracer ?metrics ?spans g in
    let faults = t.faults in
    let p = Pump.create t in
    (* A node's state freezes after the last round it ran before its
       crash: [crash - 1], or [join - 1] if it joined already crashed
       (a join counts as having run the round before it). *)
    let froze = Array.make n 0 in
    List.iter (fun (r, v) -> froze.(v) <- r - 1) (Fault.join_schedule faults);
    List.iter
      (fun (r, v) -> froze.(v) <- Stdlib.max 0 (Stdlib.max froze.(v) (r - 1)))
      (Fault.crash_schedule faults);
    let admit ~round v =
      let st, msgs = P.init g v in
      Pump.install p v
        (if round = 0 then st else P.resume st ~frozen:(round - 1));
      if not (Fault.crashed faults ~round v) then Pump.post p v msgs
    in
    for v = 0 to n - 1 do
      if Fault.joined faults ~round:0 v then admit ~round:0 v
    done;
    (* Late joiners appear when their join round arrives: they were
       already eligible for that round's deliveries, and their first
       sends go out that round like everyone else's.  A restarted node
       picks up its frozen state where it left off. *)
    let pending_joins = ref (Fault.join_schedule faults) in
    let pending_restarts = ref (Fault.restart_schedule faults) in
    let landed round =
      let rec join = function
        | (r, v) :: rest when r <= round ->
            admit ~round v;
            join rest
        | rest -> pending_joins := rest
      in
      join !pending_joins;
      let rec restart = function
        | (r, v) :: rest when r <= round ->
            Option.iter
              (fun st ->
                Pump.install p v (P.resume st ~frozen:(round - 1 - froze.(v))))
              (Pump.state p v);
            restart rest
        | rest -> pending_restarts := rest
      in
      restart !pending_restarts
    in
    (* A node keeps the run alive only if it will get to act in the
       next round — a crashed node's frozen state must not; a scheduled
       restart must, even while everything else is idle. *)
    let live v = not (Fault.crashed faults ~round:(t.rounds + 1) v) in
    let last_restart = Fault.last_restart_round faults in
    while
      (not (Pump.idle p ~live)) || !pending_joins <> [] || t.rounds < last_restart
    do
      if t.rounds >= max_rounds then budget_exhausted t "Sim.Run";
      ignore (Pump.step p ~landed)
    done;
    let final =
      (* A node whose join round never arrived ends in its initial
         state: it did not participate. *)
      Array.init n (fun v ->
          match Pump.state p v with Some st -> st | None -> fst (P.init g v))
    in
    (stats t, final)
end

module Run (P : PROTOCOL) = Run_active (struct
  include P

  let next_due _ = max_int
  let resume st ~frozen:_ = st
end)
