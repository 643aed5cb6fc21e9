(* Differential test of the event-driven pump: [Sim.Run_active] must
   behave exactly like the all-nodes driver it replaced, which runs
   every live node every round.  That driver is kept here as a
   reference, adapted to the current [ACTIVE_PROTOCOL] contract: a node
   is active while a timer is armed, and the frozen gap handed to
   [resume] comes from the driver's own last-visit bookkeeping rather
   than from the crash schedule. *)

module G = Graphlib.Graph
module Gen = Graphlib.Gen
module Fault = Distnet.Fault
module Trace = Distnet.Trace
module Sim = Distnet.Sim
module Protocols = Distnet.Protocols

module Every_round (P : Sim.ACTIVE_PROTOCOL) = struct
  let run ?faults ?tracer ?metrics g =
    let n = G.n g in
    let t = Sim.create ?faults ?tracer ?metrics g in
    let faults = Sim.faults t in
    let dynamic = Fault.has_churn faults in
    let states = Array.make n None in
    let last = Array.make n 0 (* round of the last receive; init is 0 *) in
    let post v msgs =
      List.iter
        (fun (dst, m) ->
          if (not dynamic) || Sim.link_up t ~src:v ~dst then
            Sim.send t ~src:v ~dst ~words:(P.message_words m) m)
        msgs
    in
    let resume v st ~round =
      let st = P.resume st ~frozen:(round - 1 - last.(v)) in
      last.(v) <- round - 1;
      st
    in
    for v = 0 to n - 1 do
      if Fault.joined faults ~round:0 v then begin
        let st, msgs = P.init g v in
        states.(v) <- Some st;
        if not (Fault.crashed faults ~round:0 v) then post v msgs
      end
    done;
    let pending_joins = ref (Fault.join_schedule faults) in
    let pending_restarts = ref (Fault.restart_schedule faults) in
    let inboxes = Array.make n [] in
    let round = ref 0 in
    let any_active () =
      let rec go v =
        v < n
        && ((match states.(v) with
            | Some st ->
                (not (Fault.crashed faults ~round:(!round + 1) v))
                && P.next_due st <> max_int
            | None -> false)
           || go (v + 1))
      in
      go 0
    in
    let last_restart = Fault.last_restart_round faults in
    while
      (not (Sim.quiescent t))
      || any_active ()
      || !pending_joins <> []
      || !round < last_restart
    do
      if !round >= 1_000_000 then failwith "Every_round: budget exhausted";
      incr round;
      Array.fill inboxes 0 n [];
      ignore
        (Sim.step t (fun ~dst ~src m -> inboxes.(dst) <- (src, m) :: inboxes.(dst)));
      let rec join = function
        | (r, v) :: rest when r <= !round ->
            let st, msgs = P.init g v in
            states.(v) <- Some (resume v st ~round:!round);
            if not (Fault.crashed faults ~round:!round v) then post v msgs;
            join rest
        | rest -> pending_joins := rest
      in
      join !pending_joins;
      let rec restart = function
        | (r, v) :: rest when r <= !round ->
            Option.iter
              (fun st -> states.(v) <- Some (resume v st ~round:!round))
              states.(v);
            restart rest
        | rest -> pending_restarts := rest
      in
      restart !pending_restarts;
      for v = 0 to n - 1 do
        match states.(v) with
        | Some st when not (Fault.crashed faults ~round:!round v) ->
            let st, msgs = P.receive g ~round:!round v st (List.rev inboxes.(v)) in
            states.(v) <- Some st;
            last.(v) <- !round;
            post v msgs
        | _ -> ()
      done
    done;
    ( Sim.stats t,
      Array.init n (fun v ->
          match states.(v) with Some st -> st | None -> fst (P.init g v)) )
end

(* The node programs of [Protocols.reliable_bfs] and
   [Protocols.reliable_flood], verbatim: any drift between these copies
   and the library shows up as a failing property. *)
module Bfs = struct
  type state = int
  type message = int

  let message_words _ = 1

  let announce g v d =
    G.fold_neighbors g v ~init:[] ~f:(fun acc w _ -> (w, d + 1) :: acc)

  let init g v = if v = 0 then (0, announce g v 0) else (-1, [])

  let receive g ~round:_ v st inbox =
    let best =
      List.fold_left (fun acc (_, d) -> if acc < 0 || d < acc then d else acc) st inbox
    in
    if best >= 0 && (st < 0 || best < st) then (best, announce g v best) else (st, [])
end

module Flood = struct
  type state = bool
  type message = unit

  let message_words () = 2

  let fanout g v ~except =
    G.fold_neighbors g v ~init:[] ~f:(fun acc w _ ->
        if List.mem w except then acc else (w, ()) :: acc)

  let init g v = if v = 0 then (true, fanout g v ~except:[]) else (false, [])

  let receive g ~round:_ v st inbox =
    if (not st) && inbox <> [] then (true, fanout g v ~except:(List.map fst inbox))
    else (st, [])
end

let reference (type s) (module N : Sim.PROTOCOL with type state = s) g ~faults
    ~tracer ~metrics =
  let module R =
    Distnet.Reliable.Make
      (N)
      (struct
        let metrics = metrics
        let spans = Obs.Span.disabled
      end)
  in
  let module Run = Every_round (R) in
  let stats, states = Run.run ~faults ~tracer ~metrics g in
  (stats, Array.map R.inner states)

(* Everything a run leaves behind that the pump could perturb. *)
let outcome run show =
  let tracer = Trace.create () and metrics = Obs.Metrics.create () in
  let stats, out = run ~tracer ~metrics in
  let count name = Obs.Metrics.counter_value (Obs.Metrics.counter metrics name) in
  ( stats,
    [ count "arq_retransmissions"; count "arq_dead_letters"; count "arq_timer_fires" ],
    String.concat "," (Array.to_list (Array.map show out)),
    Trace.events tracer )

(* A random plan mixing message faults, crashes with restarts, a late
   join and an edge going down and coming back up.  The joiner is often
   the root (the only node with [init] sends) and often crashes too,
   possibly before it joins. *)
let plan r g =
  let n = G.n g in
  let pick l = List.nth l (Util.Prng.int r (List.length l)) in
  let joiner = pick [ 0; Util.Prng.int r n ] in
  let crashes = ref [] and restarts = ref [] in
  for i = 1 to 1 + Util.Prng.int r 3 do
    let v = if i = 1 then pick [ joiner; Util.Prng.int r n ] else Util.Prng.int r n in
    if not (List.mem_assoc v !crashes) then begin
      let c = Util.Prng.int r 30 in
      crashes := (v, c) :: !crashes;
      if Util.Prng.int r 3 > 0 then
        restarts := (v, c + 1 + Util.Prng.int r 40) :: !restarts
    end
  done;
  let u, v = G.edge_endpoints g (Util.Prng.int r (G.m g)) in
  let down = Util.Prng.int r 30 in
  {
    Fault.default_spec with
    Fault.drop = pick [ 0.; 0.1; 0.2; 0.3 ];
    dup = pick [ 0.; 0.05 ];
    delay = pick [ 0.; 0.1 ];
    max_delay = pick [ 1; 3 ];
    crashes = !crashes;
    restarts = !restarts;
    churn =
      [
        Fault.Join { round = 1 + Util.Prng.int r 20; node = joiner };
        Fault.Edge_down { round = down; u; v };
        Fault.Edge_up { round = down + 1 + Util.Prng.int r 30; u; v };
      ];
  }

let prop_pump_matches_every_round =
  QCheck.Test.make ~name:"Run_active pump = all-nodes driver" ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let r = Util.Prng.create ~seed in
      let n = 20 + Util.Prng.int r 61 in
      let g = Gen.connected_gnp r ~n ~p:(6. /. float_of_int n) in
      let spec = plan r g in
      (* A plan draws its fates from its own stream: one per run. *)
      let same name show pump reference =
        let run driver ~tracer ~metrics =
          driver ~faults:(Fault.make ~seed ~graph:g spec) ~tracer ~metrics
        in
        outcome (run pump) show = outcome (run reference) show
        || QCheck.Test.fail_reportf "%s differs (seed %d)" name seed
      in
      same "reliable_bfs" string_of_int
        (fun ~faults ~tracer ~metrics ->
          Protocols.reliable_bfs ~faults ~tracer ~metrics g ~root:0)
        (reference (module Bfs) g)
      && same "reliable_flood" string_of_bool
           (fun ~faults ~tracer ~metrics ->
             Protocols.reliable_flood ~faults ~tracer ~metrics g ~root:0
               ~payload_words:2)
           (reference (module Flood) g))

let suite =
  [ ("distnet.pump", [ QCheck_alcotest.to_alcotest prop_pump_matches_every_round ]) ]
