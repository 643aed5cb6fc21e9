(* Golden fingerprints of faulty runs.  Each case pins the engine
   statistics, the ARQ's retransmission and dead-letter counts, a digest
   of the output and a digest of the full event trace, so any change to
   round scheduling, send order or fault draws shows up as a diff here —
   not only as a changed spanner.  A deliberate protocol change
   re-records them; an engine or transport refactor must not. *)

module G = Graphlib.Graph
module Gen = Graphlib.Gen
module Edge_set = Graphlib.Edge_set
module Fault = Distnet.Fault
module Trace = Distnet.Trace
module Sim = Distnet.Sim
module Protocols = Distnet.Protocols
module Skeleton_dist = Spanner.Skeleton_dist

let trace_digest tracer =
  let b = Buffer.create 4096 in
  List.iter
    (fun e -> Buffer.add_string b (Format.asprintf "%a\n" Trace.pp_event e))
    (Trace.events tracer);
  Digest.to_hex (Digest.string (Buffer.contents b))

let fingerprint (st : Sim.stats) ~retrans ~dead ~output tracer =
  Printf.sprintf
    "rounds=%d messages=%d words=%d retrans=%d dead=%d output=%s trace=%s"
    st.Sim.rounds st.Sim.messages st.Sim.words retrans dead
    (String.sub (Digest.to_hex (Digest.string output)) 0 12)
    (String.sub (trace_digest tracer) 0 12)

let skeleton_fingerprint ?(extra = "") (r : Skeleton_dist.result) tracer =
  let edges = ref [] in
  Edge_set.iter r.Skeleton_dist.spanner (fun e -> edges := e :: !edges);
  let rc = r.Skeleton_dist.recovery in
  fingerprint r.Skeleton_dist.stats ~retrans:rc.Skeleton_dist.retransmissions
    ~dead:rc.Skeleton_dist.dead_letters
    ~output:
      (String.concat "," (List.map string_of_int (List.sort compare !edges))
      ^ extra)
    tracer

let skeleton ~seed ~n spec =
  let g = Gen.connected_gnp (Util.Prng.create ~seed) ~n ~p:(8. /. float_of_int n) in
  let spec = spec g in
  let faults = Fault.make ~seed:(seed + 1) ~graph:g spec in
  let tracer = Trace.create () in
  skeleton_fingerprint (Skeleton_dist.build ~faults ~tracer ~seed:(seed + 2) g) tracer

(* A builtin scenario family, sampled and built the way a sweep does it
   ([Sweep.run_plan]).  Besides the spanner, the output digest covers
   the repair report, the edges still down, and the crash-recovery
   counters, so the churn repair pass and restarts are pinned too. *)
let family name ~sample =
  let module Compile = Scenario.Compile in
  let plan = Compile.compile (Option.get (Scenario.Spec.builtin name)) ~sample in
  let g = Compile.graph_of plan in
  let faults = Compile.faults ~graph:g plan in
  let tracer = Trace.create () in
  let r = Skeleton_dist.build ~faults ~tracer ~seed:plan.Compile.graph_seed g in
  let rp = r.Skeleton_dist.repair and rc = r.Skeleton_dist.recovery in
  let extra =
    Format.asprintf
      ";%a dead=%d rehooked=%d replaced=%d keep_all=%d repair_rounds=%d \
       components=%d rejoined=%d down=%s crashed=%d orphaned=%d recovered=%d"
      Skeleton_dist.pp_outcome rp.Skeleton_dist.outcome
      rp.Skeleton_dist.dead_spanner_edges rp.Skeleton_dist.rehooked
      rp.Skeleton_dist.replaced_edges rp.Skeleton_dist.keep_all_fallbacks
      rp.Skeleton_dist.repair_rounds rp.Skeleton_dist.components
      rp.Skeleton_dist.rejoined
      (String.concat "," (List.map string_of_int r.Skeleton_dist.dead_edges))
      rc.Skeleton_dist.crashed rc.Skeleton_dist.orphaned
      rc.Skeleton_dist.recovered_edges
  in
  skeleton_fingerprint ~extra r tracer

(* The ARQ counters of a [Run_active] protocol are only visible through
   its metrics. *)
let run_active run ~seed ~n spec =
  let g = Gen.connected_gnp (Util.Prng.create ~seed) ~n ~p:(6. /. float_of_int n) in
  let faults = Fault.make ~seed:(seed + 1) ~graph:g spec in
  let tracer = Trace.create () and metrics = Obs.Metrics.create () in
  let st, output = run ~faults ~tracer ~metrics g in
  let count name = Obs.Metrics.counter_value (Obs.Metrics.counter metrics name) in
  fingerprint st ~retrans:(count "arq_retransmissions")
    ~dead:(count "arq_dead_letters") ~output tracer

let bfs ~faults ~tracer ~metrics g =
  let st, dist = Protocols.reliable_bfs ~faults ~tracer ~metrics g ~root:0 in
  (st, String.concat "," (Array.to_list (Array.map string_of_int dist)))

let flood ~faults ~tracer ~metrics g =
  let st, reached =
    Protocols.reliable_flood ~faults ~tracer ~metrics g ~root:0 ~payload_words:2
  in
  (st, String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") reached)))

let lossy = { Fault.default_spec with Fault.drop = 0.2; dup = 0.05; delay = 0.1; max_delay = 3 }

let cases =
  [
    ( "skeleton: drop/dup/delay",
      (fun () -> skeleton ~seed:31 ~n:150 (fun _ -> lossy)),
      "rounds=1494 messages=28045 words=56664 retrans=5909 dead=0 output=f32dc9c6d47d trace=2304ba14fc27" );
    ( "skeleton: crash-stops",
      (fun () ->
        skeleton ~seed:32 ~n:150 (fun _ ->
            {
              Fault.default_spec with
              Fault.drop = 0.2;
              crashes = [ (5, 40); (77, 120); (140, 300) ];
            })),
      "rounds=1866 messages=19125 words=39662 retrans=4054 dead=21 output=9e67b42a399d trace=5ca617eaeac6" );
    ( "skeleton: partition, heal, edge kill",
      (fun () ->
        skeleton ~seed:33 ~n:120 (fun g ->
            let cut = ref [] in
            G.iter_neighbors g 7 (fun w _ -> cut := (7, w) :: !cut);
            let u, v = G.edge_endpoints g 0 in
            {
              Fault.default_spec with
              Fault.drop = 0.1;
              churn =
                [
                  Fault.Partition { round = 3; edges = !cut; heal = Some 25 };
                  Fault.Edge_down { round = 40; u; v };
                ];
            })),
      "rounds=1137 messages=16340 words=31981 retrans=1731 dead=2 output=d90942bc65c6 trace=f92fbe46b909" );
    ( "skeleton: restarts",
      (fun () ->
        skeleton ~seed:34 ~n:120 (fun _ ->
            {
              Fault.default_spec with
              Fault.drop = 0.1;
              crashes = [ (3, 30); (50, 80) ];
              restarts = [ (3, 200); (50, 400) ];
            })),
      "rounds=802 messages=14694 words=28659 retrans=1477 dead=0 output=bd5486494ad4 trace=4150ea8a3342" );
    ( "reliable_bfs: drop/dup/delay",
      (fun () -> run_active bfs ~seed:41 ~n:80 { lossy with Fault.drop = 0.3 }),
      "rounds=210 messages=2108 words=3737 retrans=707 dead=0 output=7757e420e394 trace=ab17fec04040" );
    ( "reliable_bfs: crashes and restarts",
      (fun () ->
        run_active bfs ~seed:42 ~n:80
          { lossy with Fault.crashes = [ (0, 3); (9, 4) ]; restarts = [ (0, 30); (9, 12) ] }),
      "rounds=213 messages=1542 words=2727 retrans=379 dead=0 output=95d879b6561a trace=6ce4c02f4d0f" );
    ( "reliable_flood: crash with a timer armed, then restart",
      (fun () ->
        run_active flood ~seed:43 ~n:60
          { lossy with Fault.drop = 0.3; crashes = [ (0, 2) ]; restarts = [ (0, 9) ] }),
      "rounds=276 messages=1143 words=2562 retrans=357 dead=0 output=8ec4e6564ac9 trace=9bec16c9b069" );
    ( "family: crash-storm",
      (fun () -> family "crash-storm" ~sample:0),
      "rounds=785 messages=3420 words=7888 retrans=1249 dead=101 output=9c46236ab442 trace=b374f3852f7a" );
    ( "family: bursty-loss",
      (fun () -> family "bursty-loss" ~sample:0),
      "rounds=244 messages=8663 words=17405 retrans=1315 dead=0 output=d86061fdde6b trace=4c8cff01e609" );
    ( "family: churn-heavy",
      (fun () -> family "churn-heavy" ~sample:0),
      "rounds=215 messages=7191 words=13974 retrans=158 dead=0 output=d86061fdde6b trace=db8443128e78" );
    ( "family: mixed",
      (fun () -> family "mixed" ~sample:0),
      "rounds=746 messages=3360 words=8081 retrans=1411 dead=101 output=020913d21917 trace=57171fff47f3" );
    ( "family: restart-storm",
      (fun () -> family "restart-storm" ~sample:0),
      "rounds=255 messages=3079 words=5755 retrans=87 dead=0 output=4c03df6186f6 trace=67cb86144408" );
  ]

let suite =
  [
    ( "golden.fingerprint",
      List.map
        (fun (name, run, golden) ->
          Alcotest.test_case name `Quick (fun () ->
              Alcotest.(check string) name golden (run ())))
        cases );
  ]
