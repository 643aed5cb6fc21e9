module Graph = Graphlib.Graph

let bfs ?faults ?tracer g ~root =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let t = Sim.create ?faults ?tracer g in
  let announce v d =
    dist.(v) <- d;
    Graph.iter_neighbors g v (fun w _ ->
        if dist.(w) < 0 then Sim.send t ~src:v ~dst:w ~words:1 (d + 1))
  in
  if n > 0 then announce root 0;
  Sim.run_until_quiescent t (fun ~dst ~src:_ d ->
      if dist.(dst) < 0 then announce dst d);
  (Sim.stats t, dist)

let flood ?faults ?tracer g ~root ~payload_words =
  let n = Graph.n g in
  let reached = Array.make n false in
  let t = Sim.create ?faults ?tracer g in
  let forward v ~from =
    reached.(v) <- true;
    Graph.iter_neighbors g v (fun w _ ->
        (* [reached w] may flip between send and delivery; that
           duplicate traffic is the real cost of flooding and is
           counted faithfully. *)
        if w <> from && not reached.(w) then
          Sim.send t ~src:v ~dst:w ~words:payload_words ())
  in
  if n > 0 then forward root ~from:(-1);
  Sim.run_until_quiescent t (fun ~dst ~src () ->
      if not reached.(dst) then forward dst ~from:src);
  (Sim.stats t, reached)

(* ------------------------------------------------------------------ *)
(* Fault-tolerant variants: the same algorithms written as node
   programs and lifted onto the lossy network by the Reliable ARQ
   wrapper.  BFS becomes unweighted Bellman-Ford — a node re-announces
   whenever its distance improves — because under delay and
   retransmission the neat layer-by-layer arrival order is gone. *)

(* Lift a node program through the ARQ wrapper and run it on the
   event-driven pump. *)
let run_reliable (type s) ?max_rounds ?faults ?tracer ?metrics ?spans g
    (module N : Sim.PROTOCOL with type state = s) =
  let module R =
    Reliable.Make
      (N)
      (struct
        let metrics = Option.value metrics ~default:Obs.Metrics.disabled
        let spans = Option.value spans ~default:Obs.Span.disabled
      end)
  in
  let module Runner = Sim.Run_active (R) in
  let stats, states = Runner.run ?max_rounds ?faults ?tracer ?metrics ?spans g in
  (stats, Array.map R.inner states)

let reliable_bfs ?max_rounds ?faults ?tracer ?metrics ?spans g ~root =
  let module N = struct
    type state = int (* distance from root; -1 = unknown *)
    type message = int (* "your distance is at most this" *)

    let message_words _ = 1

    let announce g v d =
      Graph.fold_neighbors g v ~init:[] ~f:(fun acc w _ -> (w, d + 1) :: acc)

    let init g v = if v = root then (0, announce g v 0) else (-1, [])

    let receive g ~round:_ v st inbox =
      let best =
        List.fold_left
          (fun acc (_, d) -> if acc < 0 || d < acc then d else acc)
          st inbox
      in
      if best >= 0 && (st < 0 || best < st) then (best, announce g v best)
      else (st, [])
  end in
  run_reliable ?max_rounds ?faults ?tracer ?metrics ?spans g (module N)

let reliable_flood ?max_rounds ?faults ?tracer ?metrics ?spans g ~root
    ~payload_words =
  let module N = struct
    type state = bool
    type message = unit

    let message_words () = payload_words

    let fanout g v ~except =
      Graph.fold_neighbors g v ~init:[] ~f:(fun acc w _ ->
          if List.mem w except then acc else (w, ()) :: acc)

    let init g v =
      if v = root then (true, fanout g v ~except:[]) else (false, [])

    let receive g ~round:_ v st inbox =
      if (not st) && inbox <> [] then
        (true, fanout g v ~except:(List.map fst inbox))
      else (st, [])
  end in
  run_reliable ?max_rounds ?faults ?tracer ?metrics ?spans g (module N)
