module Graph = Graphlib.Graph
module Gen = Graphlib.Gen

type plan = {
  scenario : string;
  sample : int;
  kind : string;
  n : int;
  p : float;
  graph_seed : int;
  fault_seed : int;
  fspec : Distnet.Fault.spec;
  budget_rounds : int option;
  workload : Serve.Workload.spec option;
  workload_seed : int;
}

(* Same generator dispatch as the CLI's --kind, minus --input: a plan
   must be reproducible from its own lines alone. *)
let generate ~kind ~n ~p ~seed =
  let rng = Util.Prng.create ~seed in
  match kind with
  | "gnp" -> Gen.connected_gnp rng ~n ~p
  | "gnp-raw" -> Gen.gnp rng ~n ~p
  | "torus" ->
      let side = int_of_float (Float.round (sqrt (float_of_int n))) in
      Gen.torus ~width:side ~height:side
  | "king" ->
      let side = int_of_float (Float.round (sqrt (float_of_int n))) in
      Gen.king_torus ~width:side ~height:side
  | "hypercube" ->
      let dims = int_of_float (Float.round (Util.Tower.log2 (float_of_int n))) in
      Gen.hypercube ~dims
  | "pa" -> Gen.ensure_connected rng (Gen.preferential_attachment rng ~n ~k:3)
  | "path" -> Gen.path n
  | "cycle" -> Gen.cycle n
  | other -> failwith (Printf.sprintf "unknown graph kind %s" other)

let graph_of plan =
  generate ~kind:plan.kind ~n:plan.n ~p:plan.p ~seed:plan.graph_seed

let faults ~graph plan =
  Distnet.Fault.make ~seed:plan.fault_seed ~graph plan.fspec

(* ------------------------------------------------------------------ *)
(* Sampling *)

let storm_crashes rng g (st : Spec.storm) =
  let n = Graph.n g in
  let crash_round = Array.make n (-1) in
  let crashed = ref 0 in
  (* Never let the contagion eat the whole network: a resilience
     scenario is about surviving a storm, not about an empty graph. *)
  let cap = Stdlib.max 1 (n / 2) in
  let q = Queue.create () in
  let mark v r =
    if crash_round.(v) < 0 && !crashed < cap then begin
      crash_round.(v) <- r;
      incr crashed;
      Queue.add v q
    end
  in
  for v = 0 to n - 1 do
    if Util.Prng.bernoulli rng st.Spec.frac then
      mark v
        (st.Spec.round_lo
        + Util.Prng.int rng (st.Spec.round_hi - st.Spec.round_lo + 1))
  done;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    List.iter
      (fun w ->
        if crash_round.(w) < 0 && Util.Prng.bernoulli rng st.Spec.spread then
          mark w
            (Stdlib.min st.Spec.round_hi (crash_round.(v) + 1 + Util.Prng.int rng 3)))
      (Graph.neighbors g v)
  done;
  let out = ref [] in
  for v = n - 1 downto 0 do
    if crash_round.(v) >= 0 then out := (v, crash_round.(v)) :: !out
  done;
  !out

let churn_events rng g (c : Spec.churn) =
  let m = Graph.m g in
  if m = 0 then []
  else begin
    (* Rank links by endpoint-degree sum, heaviest first (stable by
       id): the Zipf skew then aims flaps at the busiest links. *)
    let ranked = Array.init m (fun e -> e) in
    let weight e =
      let u, v = Graph.edge_endpoints g e in
      Graph.degree g u + Graph.degree g v
    in
    Array.sort
      (fun a b ->
        match compare (weight b) (weight a) with 0 -> compare a b | c -> c)
      ranked;
    let sampler = Util.Dist.zipf ~n:m ~s:c.Spec.skew in
    let busy_until = Array.make m (-1) in
    let count = Dsl.draw_int rng c.Spec.events in
    let t = ref 0 in
    let events = ref [] in
    for _ = 1 to count do
      t := !t + Stdlib.max 1 (Dsl.draw_int rng c.Spec.gap);
      (* A link already down at [t] would double-fault; re-draw a few
         times, then let this flap fizzle. *)
      let rec pick tries =
        if tries = 0 then None
        else
          let e = ranked.(Util.Dist.sample sampler rng) in
          if busy_until.(e) >= !t then pick (tries - 1) else Some e
      in
      match pick 8 with
      | None -> ()
      | Some e ->
          let dur = Stdlib.max 1 (Dsl.draw_int rng c.Spec.down_for) in
          busy_until.(e) <- !t + dur;
          let u, v = Graph.edge_endpoints g e in
          events :=
            Distnet.Fault.Edge_up { round = !t + dur; u; v }
            :: Distnet.Fault.Edge_down { round = !t; u; v }
            :: !events
    done;
    List.rev !events
  end

let compile (spec : Spec.t) ~sample =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.Compile: " ^ msg));
  if sample < 0 then
    invalid_arg (Printf.sprintf "Scenario.Compile: sample %d negative" sample);
  let graph_seed = spec.Spec.graph_seed + sample in
  let g = generate ~kind:spec.Spec.kind ~n:spec.Spec.n ~p:spec.Spec.p ~seed:graph_seed in
  let rng = Util.Prng.create ~seed:((graph_seed * 1_000_003) + (7919 * sample) + 5) in
  let fault_seed = Util.Prng.int rng 1_000_000_000 in
  let drop, drop_profile =
    match spec.Spec.loss with
    | Spec.No_loss -> (0., [])
    | Spec.Iid r -> (r, [])
    | Spec.Bursty { ge; horizon } -> (0., Dsl.ge_profile rng ge ~horizon)
  in
  let crashes, restarts =
    match spec.Spec.storm with
    | None -> ([], [])
    | Some st ->
        let crashes = storm_crashes rng g st in
        (* Crash-recovery: each crashed node draws its downtime right
           after the crash draw, keeping the stream layout of
           crash-stop specs untouched (no [down] = no extra draws). *)
        let restarts =
          match st.Spec.down with
          | None -> []
          | Some dist ->
              List.map
                (fun (v, r) -> (v, r + Stdlib.max 1 (Dsl.draw_int rng dist)))
                crashes
        in
        (crashes, restarts)
  in
  let churn =
    match spec.Spec.churn with
    | None -> []
    | Some c -> churn_events rng g c
  in
  let workload_seed =
    match spec.Spec.workload with
    | None -> 0
    | Some _ -> Util.Prng.int rng 1_000_000_000
  in
  {
    scenario = spec.Spec.name;
    sample;
    kind = spec.Spec.kind;
    n = spec.Spec.n;
    p = spec.Spec.p;
    graph_seed;
    fault_seed;
    fspec =
      {
        Distnet.Fault.drop;
        dup = spec.Spec.dup;
        delay = spec.Spec.delay;
        max_delay = spec.Spec.max_delay;
        crashes;
        restarts;
        churn;
        drop_profile;
      };
    budget_rounds = spec.Spec.budget_rounds;
    workload = spec.Spec.workload;
    workload_seed;
  }

(* ------------------------------------------------------------------ *)
(* Plan files *)

let to_string plan =
  let f = plan.fspec in
  Codec.render
    ([
       "#plan v1";
       "scenario " ^ plan.scenario;
       Printf.sprintf "sample %d" plan.sample;
       Codec.graph_line ~kind:plan.kind ~n:plan.n ~p:plan.p ~seed:plan.graph_seed;
       Printf.sprintf "fault_seed %d" plan.fault_seed;
     ]
    @ (if f.drop > 0. then [ "drop " ^ Dsl.fstr f.drop ] else [])
    @ Codec.dup_line f.dup
    @ Codec.delay_line ~delay:f.delay ~max_delay:f.max_delay
    @ (match f.drop_profile with
      | [] -> []
      | segments ->
          [
            String.concat " "
              ("profile"
              :: List.map (fun (r, rate) -> Printf.sprintf "%d:%s" r (Dsl.fstr rate)) segments);
          ])
    @ List.map (fun c -> "crash " ^ Codec.at_to_string c) f.crashes
    @ List.map (fun r -> "restart " ^ Codec.at_to_string r) f.restarts
    @ List.map
        (function
          | Distnet.Fault.Edge_down { round; u; v } ->
              "down " ^ Codec.edge_at_to_string ((u, v), round)
          | Distnet.Fault.Edge_up { round; u; v } ->
              "up " ^ Codec.edge_at_to_string ((u, v), round)
          | Distnet.Fault.Partition _ | Distnet.Fault.Join _ ->
              invalid_arg "Scenario.Compile.to_string: plan files carry only edge churn")
        f.churn
    @ Codec.budget_line plan.budget_rounds
    @ Codec.workload_line ~seed:plan.workload_seed plan.workload)

(* One directive line applied to the plan read so far; the flag records
   whether a [graph] line has been seen.  Event lines are consed, so the
   event lists come out reversed. *)
let directive (plan, graphed) (l : Codec.line) =
  let open Codec in
  let set plan = Ok (plan, graphed) in
  let f = plan.fspec in
  let fault fspec = set { plan with fspec } in
  match l.key with
  | "scenario" ->
      let* scenario = arg Option.some l in
      set { plan with scenario }
  | "sample" ->
      let* sample = arg int_of_string_opt l in
      set { plan with sample }
  | "graph" ->
      let* kind, n, p, graph_seed = graph ~p:0. l in
      Ok ({ plan with kind; n; p; graph_seed }, true)
  | "fault_seed" ->
      let* fault_seed = arg int_of_string_opt l in
      set { plan with fault_seed }
  | "drop" ->
      let* drop = arg float_of_string_opt l in
      fault { f with drop }
  | "dup" ->
      let* dup = dup l in
      fault { f with dup }
  | "delay" ->
      let* delay, max_delay = delay ~max_delay:f.max_delay l in
      fault { f with delay; max_delay }
  | "profile" ->
      let* drop_profile = args (pair ':' int_of_string_opt float_of_string_opt) l in
      fault { f with drop_profile }
  | "crash" ->
      let* c = arg at l in
      fault { f with crashes = c :: f.crashes }
  | "restart" ->
      let* r = arg at l in
      fault { f with restarts = r :: f.restarts }
  | "down" ->
      let* (u, v), round = arg edge_at l in
      fault { f with churn = Distnet.Fault.Edge_down { round; u; v } :: f.churn }
  | "up" ->
      let* (u, v), round = arg edge_at l in
      fault { f with churn = Distnet.Fault.Edge_up { round; u; v } :: f.churn }
  | "budget" ->
      let* r = budget l in
      set { plan with budget_rounds = Some r }
  | "workload" ->
      let* w = workload l in
      let* workload_seed = int "seed" l in
      set { plan with workload = Some w; workload_seed }
  | _ -> unknown l

(* The graph-independent checks {!Spec.validate} runs on the same
   fields; crash, restart and churn events need the graph and are
   checked by {!Distnet.Fault.make}. *)
let validate plan =
  let open Codec in
  let f = plan.fspec in
  let* () = check_graph ~n:plan.n ~p:plan.p in
  let* () = rate "drop" f.drop in
  let* () = check_delay ~dup:f.dup ~delay:f.delay ~max_delay:f.max_delay in
  let* () =
    List.fold_left
      (fun ok (_, r) -> Result.bind ok (fun () -> rate "profile rate" r))
      (Ok ()) f.drop_profile
  in
  let* () = check_budget plan.budget_rounds in
  check_workload plan.workload

let empty =
  {
    scenario = "?";
    sample = 0;
    kind = "gnp";
    n = 0;
    p = 0.;
    graph_seed = 0;
    fault_seed = 0;
    fspec = { Distnet.Fault.default_spec with max_delay = 3 };
    budget_rounds = None;
    workload = None;
    workload_seed = 0;
  }

let parse text =
  let open Codec in
  let* plan, graphed = fold ~label:"plan file" directive (empty, false) text in
  let* () = if graphed then Ok () else Error "plan file: missing 'graph' line" in
  let f = plan.fspec in
  let plan =
    {
      plan with
      fspec =
        { f with crashes = List.rev f.crashes; restarts = List.rev f.restarts; churn = List.rev f.churn };
    }
  in
  match validate plan with
  | Ok () -> Ok plan
  | Error msg -> Error ("plan file: " ^ msg)

let load = Codec.load parse
let save = Codec.save to_string
