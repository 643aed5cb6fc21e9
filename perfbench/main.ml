(* End-to-end pipeline benchmark.

   A run measures one workload on a batch of independently seeded
   instances.  Each instance is one pass of the CLI pipeline, from
   generated inputs to the last answered query:
   Skeleton_dist.build (under the instance's faults) -> Certify.run ->
   Snapshot.build -> Server.run, plus, on serve-churn, a repair rebuild
   and Server.publish mid-stream.  Every layer is timed only from
   outside, around calls into its public functions.  With [--trace 1]
   each instance is run a second time with those calls kept as spans
   (name, start, stop, parent) in memory; they become the per-layer
   figures and are written to stderr when the run ends.

   A run fails (exit 1, [correct = false]) when a spanner does not
   certify, a snapshot fails its answer audit, a layer-sum check fails,
   or two runs of one instance disagree on a deterministic count. *)

module Graph = Graphlib.Graph
module Edge_set = Graphlib.Edge_set
module Prng = Util.Prng
module Fault = Distnet.Fault
module Sim = Distnet.Sim
module Sd = Spanner.Skeleton_dist
module Certify = Spanner.Certify
module Snapshot = Serve.Snapshot
module Server = Serve.Server
module Workload = Serve.Workload

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = {
  name : string;
  n : int;
  drop : float;  (** per-message loss of the first build *)
  crash_rounds : int list;  (** one crash-stop per entry, nodes seeded *)
  churn_edges : int;  (** edges taken down mid-stream; 0 = no churn *)
  queries : int;
  zipf : float option;
}

let workloads =
  [
    (* The ARQ-and-idle-engine workload: thousands of rounds, few
       messages per node-round. *)
    {
      name = "crash-recovery";
      n = 1000;
      drop = 0.2;
      crash_rounds = [ 40; 120; 300 ];
      churn_edges = 0;
      queries = 200_000;
      zipf = Some 1.1;
    };
    (* Message volume on the bare engine (no ARQ, more than one message
       per node-round), and the largest snapshot build. *)
    {
      name = "lossfree-scale";
      n = 4000;
      drop = 0.;
      crash_rounds = [];
      churn_edges = 0;
      queries = 100_000;
      zipf = None;
    };
    (* Reads beside a snapshot swap: serve, churn, repair over ARQ,
       re-certify, publish, serve. *)
    {
      name = "serve-churn";
      n = 1000;
      drop = 0.;
      crash_rounds = [];
      churn_edges = 8;
      queries = 600_000;
      zipf = Some 1.1;
    };
  ]

(* Instances per run.  One instance's rounds, words and query latency
   swing by 10-20% from seed to seed, so a run reports the mean over a
   batch of instances drawn from its seed. *)
let instances = 12

let avg_degree = 12.5
let route_frac = 0.25
let oracle_k = 2
let audit_samples = 64

(* Round at which every churned edge of the repair rebuild goes down.
   Staggered drops would add their ARQ suspicion timeouts one after
   another, and the rebuild's rounds would then vary twofold between
   seeds. *)
let churn_round = 10

(* Largest share of a traced pipeline the spans may leave unattributed
   before the layer-sum check fails. *)
let max_unattributed_share = 0.02

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9
let sum f l = List.fold_left (fun a x -> a +. f x) 0. l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l
let last l = List.nth l (List.length l - 1)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let mean xs = sum Fun.id xs /. float_of_int (List.length xs)

exception Check_failed of string

let check ok fmt =
  Format.kasprintf (fun msg -> if not ok then raise (Check_failed msg)) fmt

(* ------------------------------------------------------------------ *)
(* Inputs: everything derives from the instance seed; the program only
   ever sees the generated graph, fault plans and query stream. *)

type inputs = {
  g : Graph.t;
  faults : unit -> Fault.t;  (** plan of the first build *)
  churn : (unit -> Fault.t) option;  (** plan of the repair rebuild *)
  queries : Workload.query array;
  build_seed : int;
  snap_seed : int;
}

(* [k] distinct edges whose joint removal keeps [g] connected, so the
   churn partitions nothing and every query stays answerable. *)
let non_bridge_edges rng g k =
  let chosen = Hashtbl.create k in
  let connected_without extra =
    let b = Graph.Builder.create ~n:(Graph.n g) in
    Graph.iter_edges g (fun e u v ->
        if e <> extra && not (Hashtbl.mem chosen e) then
          Graph.Builder.add_edge b u v);
    Graph.is_connected (Graph.Builder.build b)
  in
  let picked = ref [] in
  while List.length !picked < k do
    let e = Prng.int rng (Graph.m g) in
    if (not (Hashtbl.mem chosen e)) && connected_without e then begin
      Hashtbl.replace chosen e ();
      picked := e :: !picked
    end
  done;
  List.rev !picked

(* The inputs and the seconds spent on each set-up layer.  A fault plan
   draws its fates from a PRNG it owns, so every build gets a fresh plan
   made from the same seed and spec. *)
let make_inputs w ~seed =
  let rng = Prng.create ~seed in
  let t0 = now_ns () in
  let g =
    Graphlib.Gen.connected_gnp (Prng.split rng) ~n:w.n
      ~p:(avg_degree /. float_of_int (w.n - 1))
  in
  let t1 = now_ns () in
  let fault_seed = Prng.int rng 1_000_000_000 in
  let crashed =
    Prng.sample_without_replacement rng ~k:(List.length w.crash_rounds) ~n:w.n
  in
  Prng.shuffle rng crashed;
  let plan spec () = Fault.make ~seed:fault_seed ~graph:g spec in
  let faults =
    if w.drop = 0. && w.crash_rounds = [] then Fun.const Fault.none
    else
      plan
        {
          Fault.default_spec with
          drop = w.drop;
          crashes = List.mapi (fun i r -> (crashed.(i), r)) w.crash_rounds;
        }
  in
  let churn =
    if w.churn_edges = 0 then None
    else
      let down e =
        let u, v = Graph.edge_endpoints g e in
        Fault.Edge_down { round = churn_round; u; v }
      in
      Some
        (plan
           {
             Fault.default_spec with
             churn = List.map down (non_bridge_edges rng g w.churn_edges);
           })
  in
  (* Validate the plans here, where set-up pays for it. *)
  ignore (faults ());
  Option.iter (fun f -> ignore (f ())) churn;
  let t2 = now_ns () in
  let queries =
    Workload.generate ~seed:(Prng.int rng 1_000_000_000) ~n:w.n
      { Workload.queries = w.queries; zipf = w.zipf; route_frac }
  in
  (* Users address live nodes: an endpoint the plan crash-stops moves
     to the next surviving id. *)
  let rec live v = if Array.mem v crashed then live ((v + 1) mod w.n) else v in
  let queries =
    if crashed = [||] then queries
    else
      Array.map
        (fun q -> { q with Workload.src = live q.Workload.src; dst = live q.Workload.dst })
        queries
  in
  let t3 = now_ns () in
  let build_seed = Prng.int rng 1_000_000_000 in
  let snap_seed = Prng.int rng 1_000_000_000 in
  ( { g; faults; churn; queries; build_seed; snap_seed },
    [ ("gen", secs (t1 - t0)); ("fault", secs (t2 - t1)); ("workload", secs (t3 - t2)) ]
  )

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  id : int;
  sname : string;
  parent : int;  (** [id] of the enclosing span; -1 for the root *)
  start_ns : int;
  stop_ns : int;
  words : float;  (** minor words allocated inside *)
}

(* Every call into a layer goes through [call], traced or not, so both
   runs execute the same benchmark code; only the traced one keeps the
   spans. *)
type tracer = {
  keep : bool;
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable open_span : int;
}

let call tr sname f =
  let id = tr.next and parent = tr.open_span in
  tr.next <- id + 1;
  tr.open_span <- id;
  let w0 = Gc.minor_words () in
  let start_ns = now_ns () in
  let x = f () in
  let stop_ns = now_ns () in
  let words = Gc.minor_words () -. w0 in
  tr.open_span <- parent;
  let s = { id; sname; parent; start_ns; stop_ns; words } in
  if tr.keep then tr.spans <- s :: tr.spans;
  (x, s)

let dur s = secs (s.stop_ns - s.start_ns)

(* Seconds of [s] not covered by its children among [spans]. *)
let self_time spans s =
  let id = s.id in
  dur s -. sum (fun c -> if c.parent = id then dur c else 0.) spans

(* ------------------------------------------------------------------ *)
(* One pipeline *)

type build = {
  r : Sd.result;
  verdict : Certify.verdict;
  build_span : span;
  certify_span : span;
}

type rep = {
  root : span;  (** the whole pipeline *)
  builds : build list;  (** in pipeline order *)
  snaps : (Snapshot.t * span) list;
  report : Server.report;  (** all batches merged *)
  run_spans : span list;
  publish_spans : span list;  (** Server.create / mark_dirty / publish *)
  stale_window_ns : int;
  spans : span list;  (** traced runs only, oldest first *)
  metrics : Obs.Metrics.t;
}

let build_and_certify w inp tr ~metrics ~faults =
  let r, build_span =
    call tr "skeleton.build" (fun () ->
        Sd.build ~faults ~metrics ~seed:inp.build_seed inp.g)
  in
  let dead = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace dead e ()) r.Sd.dead_edges;
  let verdict, certify_span =
    call tr "certify.run" (fun () ->
        Certify.run ~per_component:true
          ~down_edge:(fun e -> Hashtbl.mem dead e)
          ~plan:r.Sd.plan ~witness:r.Sd.witness inp.g r.Sd.spanner)
  in
  check (Certify.ok verdict) "%s: spanner does not certify:@.%a" w.name
    Certify.pp verdict;
  { r; verdict; build_span; certify_span }

let snapshot inp tr ~generation (b : build) =
  call tr "snapshot.build" (fun () ->
      Snapshot.build ~generation ~k:oracle_k ~seed:inp.snap_seed ~routing:true
        ~exclude:b.r.Sd.dead_edges inp.g b.r.Sd.spanner)

let pipeline w inp ~traced =
  let tr = { keep = traced; spans = []; next = 0; open_span = -1 } in
  let metrics = if traced then Obs.Metrics.create () else Obs.Metrics.disabled in
  let nq = Array.length inp.queries in
  let faults = inp.faults () and churn = Option.map (fun f -> f ()) inp.churn in
  (* The root span is the pipeline; every layer call is its child, so
     its self time is what no layer accounts for. *)
  let (builds, snaps, reports, run_spans, publish_spans, stale_window_ns), root =
    call tr "pipeline" @@ fun () ->
    let t0 = now_ns () in
    let b0 = build_and_certify w inp tr ~metrics ~faults in
    let snap0, snap0_span = snapshot inp tr ~generation:0 b0 in
    let server, create_span = call tr "server.create" (fun () -> Server.create snap0) in
    let run first count =
      call tr "server.run" (fun () -> Server.run ~first ~count server inp.queries)
    in
    match churn with
    | None ->
        let rep, s = run 0 nq in
        (* Without churn the only topology change is the first one: the
           window runs from the inputs to the first live snapshot. *)
        ([ b0 ], [ (snap0, snap0_span) ], [ rep ], [ s ], [ create_span ], create_span.stop_ns - t0)
    | Some faults ->
        (* A third fresh, a third stale while the repair rebuild runs,
           the rest from the published next generation. *)
        let third = nq / 3 in
        let r1, s1 = run 0 third in
        let (), dirty_span = call tr "server.mark_dirty" (fun () -> Server.mark_dirty server) in
        let r2, s2 = run third third in
        let b1 = build_and_certify w inp tr ~metrics ~faults in
        let snap1, snap1_span = snapshot inp tr ~generation:1 b1 in
        let (), publish_span = call tr "server.publish" (fun () -> Server.publish server snap1) in
        let r3, s3 = run (2 * third) (nq - (2 * third)) in
        ( [ b0; b1 ],
          [ (snap0, snap0_span); (snap1, snap1_span) ],
          [ r1; r2; r3 ],
          [ s1; s2; s3 ],
          [ create_span; dirty_span; publish_span ],
          publish_span.stop_ns - dirty_span.start_ns )
  in
  {
    root;
    builds;
    snaps;
    report = Server.merge reports;
    run_spans;
    publish_spans;
    stale_window_ns;
    spans = List.rev tr.spans;
    metrics;
  }

(* Out-of-band checks on a finished pipeline (untimed). *)
let audit w inp rep =
  List.iteri
    (fun i (snap, _) ->
      let a =
        Server.audit ~samples:audit_samples ~seed:(inp.snap_seed + i) snap
          inp.queries
      in
      check (Server.audit_ok a) "%s: snapshot %d fails its answer audit: %a"
        w.name i Server.pp_audit a)
    rep.snaps

(* The counts an instance must reproduce exactly on every run. *)
let fingerprint rep =
  List.concat_map
    (fun b ->
      let s = b.r.Sd.stats in
      [ s.Sim.rounds; s.Sim.messages; s.Sim.words; Edge_set.cardinal b.r.Sd.spanner ])
    rep.builds
  @ List.map (fun (snap, _) -> Snapshot.edges snap) rep.snaps
  @ [ rep.report.Server.answered; rep.report.Server.failed ]

(* ------------------------------------------------------------------ *)
(* Figures of one pipeline: (name, value, unit) *)

let rounds rep = isum (fun b -> b.r.Sd.stats.Sim.rounds) rep.builds
let messages rep = isum (fun b -> b.r.Sd.stats.Sim.messages) rep.builds
let pct sorted p = Util.Stats.exact_percentile_of_sorted sorted p

let end_to_end w rep =
  let rp = rep.report in
  let lat = rp.Server.latency_sorted in
  let answered = float_of_int rp.Server.answered in
  [
    ("pipeline_s", dur rep.root, "s");
    ("spanner_s", sum (fun b -> dur b.build_span +. dur b.certify_span) rep.builds, "s");
    ("stale_window_s", secs rep.stale_window_ns, "s");
    ("pipeline_mwords", rep.root.words /. 1e6, "Mwords");
    ("query_qps", answered /. sum dur rep.run_spans, "q/s");
    ("query_p50_ns", pct lat 0.50, "ns");
    ("query_p99_ns", pct lat 0.99, "ns");
    ("query_p999_ns", pct lat 0.999, "ns");
    ("query_ok_frac", (answered -. float_of_int rp.Server.failed) /. answered, "ratio");
    ("rounds", float_of_int (rounds rep), "rounds");
    ("wire_words", float_of_int (isum (fun b -> b.r.Sd.stats.Sim.words) rep.builds), "words");
    ( "spanner_edges_per_node",
      float_of_int (Edge_set.cardinal (last rep.builds).r.Sd.spanner) /. float_of_int w.n,
      "ratio" );
    ( "max_stretch",
      List.fold_left (fun a b -> Float.max a b.verdict.Certify.max_stretch) 0. rep.builds,
      "ratio" );
  ]

let phases =
  [
    "exchange"; "convergecast"; "wave"; "notify"; "dying"; "final";
    "death-notices"; "churn-forward"; "repair-exchange"; "repair-convergecast";
    "repair-wave"; "repair-keep-all"; "post";
  ]

(* Sum of every counter named [name] whose labels satisfy [pick]. *)
let counter_sum samples ?(pick = fun _ -> true) name =
  List.fold_left
    (fun a (s : Obs.Metrics.sample) ->
      match s.value with
      | Obs.Metrics.Counter v when s.name = name && pick s.labels -> a + v
      | _ -> a)
    0 samples

let per_layer w rep =
  let samples = Obs.Metrics.snapshot rep.metrics in
  let n = float_of_int w.n in
  let rounds = float_of_int (rounds rep) and msgs = float_of_int (messages rep) in
  let build_s = sum (fun b -> dur b.build_span) rep.builds in
  let build_words = sum (fun b -> b.build_span.words) rep.builds in
  let recovery f = float_of_int (isum (fun b -> f b.r.Sd.recovery) rep.builds) in
  let retrans = recovery (fun r -> r.Sd.retransmissions) in
  (* The repair pass runs inside [build]; a timer around public calls
     cannot split it off, so it gets the build's time pro rata by
     rounds. *)
  let repair_s =
    sum
      (fun b ->
        dur b.build_span
        *. float_of_int b.r.Sd.repair.Sd.repair_rounds
        /. float_of_int b.r.Sd.stats.Sim.rounds)
      rep.builds
  in
  let certify_s = sum (fun b -> dur b.certify_span) rep.builds in
  let pairs = float_of_int (isum (fun b -> b.verdict.Certify.pairs) rep.builds) in
  let run_s = sum dur rep.run_spans in
  let answered = float_of_int rep.report.Server.answered in
  let pipeline_s = dur rep.root in
  let unattributed = self_time rep.spans rep.root in
  check
    (unattributed <= max_unattributed_share *. pipeline_s)
    "%s: spans leave %.3f s of a %.3f s pipeline unattributed (bound %.0f%%)"
    w.name unattributed pipeline_s (100. *. max_unattributed_share);
  [
    ("trace.pipeline_s", pipeline_s, "s");
    ("sim.node_rounds", n *. rounds, "count");
    ("sim.msgs_per_node_round", msgs /. (n *. rounds), "ratio");
    ("skeleton.build_s", build_s, "s");
    ("skeleton.build_mwords", build_words /. 1e6, "Mwords");
    ("skeleton.messages", msgs, "count");
    ("skeleton.ns_per_msg", build_s *. 1e9 /. msgs, "ns");
    ("skeleton.words_per_msg", build_words /. msgs, "words");
    ( "skeleton.repair_rounds",
      float_of_int (isum (fun b -> b.r.Sd.repair.Sd.repair_rounds) rep.builds),
      "rounds" );
    ("skeleton.repair_s", repair_s, "s");
    ("reliable.retransmissions", retrans, "count");
    ("reliable.dead_letters", recovery (fun r -> r.Sd.dead_letters), "count");
    ("reliable.retrans_per_msg", retrans /. msgs, "ratio");
    ("reliable.timer_fires", float_of_int (counter_sum samples "arq_timer_fires"), "count");
    ("certify.s", certify_s, "s");
    ("certify.pairs", pairs, "count");
    ("certify.ns_per_pair", certify_s *. 1e9 /. pairs, "ns");
    ("snapshot.build_s", sum (fun (_, s) -> dur s) rep.snaps, "s");
    ("snapshot.build_mwords", sum (fun (_, s) -> s.words) rep.snaps /. 1e6, "Mwords");
    ("server.run_s", run_s, "s");
    ("server.ns_per_query", run_s *. 1e9 /. answered, "ns");
    ("server.words_per_query", sum (fun s -> s.words) rep.run_spans /. answered, "words");
    ("server.publish_s", sum dur rep.publish_spans, "s");
    ("trace.unattributed_s", unattributed, "s");
  ]
  @ List.map
      (fun p ->
        ( "skeleton.phase_rounds." ^ p,
          float_of_int
            (counter_sum samples
               ~pick:(fun labels -> List.assoc_opt "phase" labels = Some p)
               "phase_rounds"),
          "rounds" ))
      phases

(* Single calls outside the pipeline, on an instance's graph and final
   snapshot: raw engine cost, ARQ overhead at drop 0, and the two
   halves of the snapshot build. *)
let microbench w inp snap =
  let timed f =
    let runs =
      List.init 3 (fun _ ->
          Gc.full_major ();
          let t0 = now_ns () in
          let x = f () in
          (secs (now_ns () - t0), x))
    in
    (median (List.map fst runs), snd (List.hd runs))
  in
  let flood_s, (flood_stats, _) =
    timed (fun () -> Distnet.Protocols.flood inp.g ~root:0 ~payload_words:1)
  in
  let bfs_s, _ = timed (fun () -> Distnet.Protocols.bfs inp.g ~root:0) in
  let rbfs_s, _ = timed (fun () -> Distnet.Protocols.reliable_bfs inp.g ~root:0) in
  let sg = Snapshot.graph snap in
  let oracle_s, oracle =
    timed (fun () -> Oracle.Distance_oracle.build ~k:oracle_k ~seed:inp.snap_seed sg)
  in
  let routing_s, routing = timed (fun () -> Oracle.Compact_routing.build ~seed:inp.snap_seed sg) in
  check
    (Oracle.Distance_oracle.size oracle = Snapshot.oracle_entries snap)
    "%s: the oracle rebuilt on Snapshot.graph differs from the snapshot's" w.name;
  [
    ("sim.flood_ns_per_msg", flood_s *. 1e9 /. float_of_int flood_stats.Sim.messages, "ns");
    ("reliable.bfs_overhead_x", rbfs_s /. bfs_s, "x");
    ("oracle.build_s", oracle_s, "s");
    ("oracle.entries", float_of_int (Oracle.Distance_oracle.size oracle), "count");
    ("routing.build_s", routing_s, "s");
    ("routing.state", float_of_int (Oracle.Compact_routing.total_state routing), "count");
  ]

(* ------------------------------------------------------------------ *)
(* Entry point *)

(* Combine rows of (name, value, unit) that share their names in
   order. *)
let combine f rows =
  List.mapi
    (fun i (name, _, unit) ->
      (name, f (List.map (fun row -> let _, v, _ = List.nth row i in v) rows), unit))
    (List.hd rows)

type result = {
  attempted : int;  (** pipelines *)
  failed : int;  (** pipelines whose build wedged *)
  queries : int;  (** queries answered *)
  metrics : (string * float * string) list;
}

let run w ~seed ~seconds ~trace =
  let start = now_ns () in
  let rng = Prng.create ~seed in
  let seeds = Array.init instances (fun _ -> Prng.int rng 1_000_000_000) in
  let setups = ref [] in
  let setup i =
    Gc.full_major ();
    let inp, parts = make_inputs w ~seed:seeds.(i) in
    setups := parts :: !setups;
    inp
  in
  let fingerprints = Array.make instances None in
  let attempted = ref 0 and failed = ref 0 and queries = ref 0 in
  (* A build that wedges ([Stuck]) is a failed operation, not a wrong
     answer: it is counted, reported on stderr, and its instance adds no
     figures.  It must wedge identically on every run of the instance. *)
  let pipeline_checked i inp ~traced =
    Gc.full_major ();
    incr attempted;
    let outcome =
      match pipeline w inp ~traced with
      | rep ->
          audit w inp rep;
          Ok rep
      | exception Sd.Stuck { phase; stats; _ } -> Error (phase, stats)
    in
    let fp = Result.map fingerprint outcome in
    (match fingerprints.(i) with
    | None -> fingerprints.(i) <- Some fp
    | Some fp0 ->
        check (fp = fp0) "%s: instance %d of seed %d changed a deterministic count"
          w.name i seed);
    (match outcome with
    | Ok rep -> queries := !queries + rep.report.Server.answered
    | Error (phase, stats) ->
        incr failed;
        Printf.eprintf "instance %d (seed %d): build wedged in phase %s after %d rounds\n%!"
          i seeds.(i) phase stats.Sim.rounds);
    outcome
  in
  (* Warm-up, unreported: grows the heap to its working size and takes
     instance 0's first fingerprint, so every measured pass is also a
     determinism check on it. *)
  ignore (pipeline_checked 0 (setup 0) ~traced:false);
  setups := [];
  (* Per instance, one row per pass (newest first); only figures
     outlive a pipeline, so the heap holds one instance at a time. *)
  let rows = Array.make instances [] and layer_rows = Array.make instances [] in
  let micro = ref [] and span_log = ref [] in
  let pass () =
    for i = 0 to instances - 1 do
      let inp = setup i in
      match pipeline_checked i inp ~traced:false with
      | Error _ -> ()
      | Ok rep ->
          let row = end_to_end w rep in
          rows.(i) <- row :: rows.(i);
          Printf.eprintf "instance %d (seed %d):%s\n%!" i seeds.(i)
            (String.concat ""
               (List.map (fun (name, v, _) -> Printf.sprintf " %s=%.6g" name v) row));
          if trace then
            Result.iter
              (fun traced ->
                layer_rows.(i) <-
                  (per_layer w traced
                  @ [ ("trace.overhead_s", dur traced.root -. dur rep.root, "s") ])
                  :: layer_rows.(i);
                span_log := (i, traced) :: !span_log;
                if !micro = [] then micro := microbench w inp (fst (last traced.snaps)))
              (pipeline_checked i inp ~traced:true)
    done
  in
  (* One pass over the batch, then more while the budget holds another;
     the traced run makes one. *)
  let budget_ns = int_of_float (seconds *. 1e9) in
  let rec passes () =
    let t0 = now_ns () in
    pass ();
    let took = now_ns () - t0 in
    if (not trace) && now_ns () - start + took <= budget_ns then passes ()
  in
  passes ();
  (* The traced run's spans, written once it has ended: one JSON line
     each on stderr, times relative to the pipeline's start. *)
  List.iter
    (fun (i, rep) ->
      List.iter
        (fun sp ->
          Printf.eprintf
            "{\"instance\": %d, \"span\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %d, \"dur_ns\": %d, \"self_ns\": %.0f, \"minor_words\": %.0f}\n"
            i sp.id sp.sname sp.parent (sp.start_ns - rep.root.start_ns)
            (sp.stop_ns - sp.start_ns) (self_time rep.spans sp *. 1e9) sp.words)
        rep.spans)
    (List.rev !span_log);
  (* Each instance's median over passes, then the mean over the
     instances that completed. *)
  let batch rows =
    let done_ = List.filter (( <> ) []) (Array.to_list rows) in
    check (done_ <> []) "%s: no instance of seed %d completed" w.name seed;
    combine mean (List.map (combine median) done_)
  in
  let metrics =
    if trace then
      [
        ("setup.gen_s", median (List.map (List.assoc "gen") !setups), "s");
        ("setup.fault_s", median (List.map (List.assoc "fault") !setups), "s");
        ("setup.workload_s", median (List.map (List.assoc "workload") !setups), "s");
      ]
      @ batch layer_rows @ !micro
    else
      let setup_s = median (List.map (sum snd) !setups) in
      (* The process's heap high-water mark, after the whole run. *)
      let peak_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
      in
      (("setup_s", setup_s, "s") :: batch rows) @ [ ("peak_heap_mb", peak_mb, "MB") ]
  in
  List.iter
    (fun (name, v, _) -> check (Float.is_finite v) "%s: %s is not a number" w.name name)
    metrics;
  { attempted = !attempted; failed = !failed; queries = !queries; metrics }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measuring budget");
      ("--trace", Arg.Set_int trace, " 1 = per-layer figures from traced pipelines");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  match run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | exception Check_failed msg ->
      Printf.eprintf "CHECK FAILED: %s\n" msg;
      print_endline {|{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}|};
      exit 1
  | r ->
      Printf.printf "# %s seed=%d instances=%d pipelines=%d wedged=%d queries=%d trace=%d\n"
        w.name !seed instances r.attempted r.failed r.queries !trace;
      List.iter (fun (name, v, unit) -> Printf.printf "# %-36s %18.6f %s\n" name v unit) r.metrics;
      Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        r.attempted r.failed
        (String.concat ", "
           (List.map
              (fun (name, v, unit) ->
                Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
              r.metrics))
