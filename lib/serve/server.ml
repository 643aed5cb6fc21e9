module Metrics = Obs.Metrics

type t = {
  mutable current : Snapshot.t;
  mutable epoch : int;
  mutable swaps : int;
  metrics : Metrics.t;
  (* Hot-path instrument cache, refreshed when the generation moves:
     the batch loop must not pay a find-or-create per query. *)
  mutable cached_gen : int;
  mutable c_fresh : Metrics.counter;
  mutable c_stale : Metrics.counter;
  mutable h_latency : Metrics.histogram;
  c_failed : Metrics.counter;
  c_swaps : Metrics.counter;
}

let instruments metrics gen =
  let g = [ ("generation", string_of_int gen) ] in
  ( Metrics.counter metrics "serve_answers"
      ~labels:(("freshness", "fresh") :: g),
    Metrics.counter metrics "serve_answers"
      ~labels:(("freshness", "stale") :: g),
    Metrics.histogram metrics "serve_latency_ns" ~labels:g )

let create ?(metrics = Metrics.disabled) snapshot =
  let gen = Snapshot.generation snapshot in
  let c_fresh, c_stale, h_latency = instruments metrics gen in
  {
    current = snapshot;
    epoch = gen;
    swaps = 0;
    metrics;
    cached_gen = gen;
    c_fresh;
    c_stale;
    h_latency;
    c_failed = Metrics.counter metrics "serve_failed";
    c_swaps = Metrics.counter metrics "serve_swaps";
  }

let snapshot t = t.current
let generation t = Snapshot.generation t.current
let epoch t = t.epoch
let swaps t = t.swaps

let refresh_cache t =
  let gen = Snapshot.generation t.current in
  if gen <> t.cached_gen then begin
    let c_fresh, c_stale, h_latency = instruments t.metrics gen in
    t.cached_gen <- gen;
    t.c_fresh <- c_fresh;
    t.c_stale <- c_stale;
    t.h_latency <- h_latency
  end

let mark_dirty t = t.epoch <- t.epoch + 1

let publish t snapshot =
  let gen = Snapshot.generation snapshot in
  if gen <= Snapshot.generation t.current then
    invalid_arg
      (Printf.sprintf "Server.publish: generation %d not above current %d" gen
         (Snapshot.generation t.current));
  (* The swap itself: one assignment.  Readers holding the old
     snapshot keep a consistent immutable structure until they
     drain. *)
  t.current <- snapshot;
  t.swaps <- t.swaps + 1;
  if t.epoch < gen then t.epoch <- gen;
  Metrics.incr t.c_swaps;
  refresh_cache t

type report = {
  answered : int;
  failed : int;
  stale : int;
  elapsed_ns : int;
  latency_sorted : float array;
  by_generation : (int * int * int) list;
}

(* In-place heapsort of a latency batch.  The [float array] annotation
   keeps it monomorphic: a polymorphic comparison would box two floats
   per call. *)
let rec sift_down (a : float array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_down a c len
    end
  end

let sort_floats (a : float array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a 0 last
  done

(* Per-generation answer tallies, ascending by generation, equal
   generations summed. *)
let combine_generations rows =
  List.sort compare rows
  |> List.fold_left
       (fun acc (g, f, s) ->
         match acc with
         | (g', f', s') :: rest when g' = g -> (g, f + f', s + s') :: rest
         | _ -> (g, f, s) :: acc)
       []
  |> List.rev

type tally = { gen : int; mutable fresh : int; mutable stale : int }

let run ?(first = 0) ?count t queries =
  let count =
    match count with
    | Some c -> c
    | None -> Array.length queries - first
  in
  if first < 0 || count < 0 || first + count > Array.length queries then
    invalid_arg "Server.run: batch outside the workload";
  refresh_cache t;
  let latency = Array.make count 0. in
  let failed = ref 0 and stale_count = ref 0 in
  let tallies = ref [] in
  let tally_for gen =
    match List.find_opt (fun c -> c.gen = gen) !tallies with
    | Some c -> c
    | None ->
        let c = { gen; fresh = 0; stale = 0 } in
        tallies := c :: !tallies;
        c
  in
  (* The current generation's cell; the list is searched only when the
     generation moves, so a query allocates nothing. *)
  let cell = ref (tally_for (Snapshot.generation t.current)) in
  (* One region per batch, not per query — a per-query enter/leave
     would dwarf the nanosecond-scale lookups it measures. *)
  let prof = Obs.Prof.current () in
  Obs.Prof.enter prof "serve_answer";
  let batch_start = Monotonic_clock.now () in
  for i = 0 to count - 1 do
    let q = queries.(first + i) in
    let snap = t.current in
    let t0 = Monotonic_clock.now () in
    let value =
      if q.Workload.route then Snapshot.route_hops snap q.Workload.src q.Workload.dst
      else Snapshot.distance snap q.Workload.src q.Workload.dst
    in
    let t1 = Monotonic_clock.now () in
    let ns = Int64.to_int (Int64.sub t1 t0) in
    latency.(i) <- float_of_int ns;
    Metrics.observe t.h_latency ns;
    let gen = Snapshot.generation snap in
    let stale = gen < t.epoch in
    if stale then begin
      incr stale_count;
      Metrics.incr t.c_stale
    end
    else Metrics.incr t.c_fresh;
    if value < 0 then begin
      incr failed;
      Metrics.incr t.c_failed
    end;
    if gen <> !cell.gen then cell := tally_for gen;
    let c = !cell in
    if stale then c.stale <- c.stale + 1 else c.fresh <- c.fresh + 1
  done;
  let batch_stop = Monotonic_clock.now () in
  Obs.Prof.leave prof;
  sort_floats latency;
  {
    answered = count;
    failed = !failed;
    stale = !stale_count;
    elapsed_ns = Int64.to_int (Int64.sub batch_stop batch_start);
    latency_sorted = latency;
    by_generation =
      List.filter_map
        (fun c ->
          if c.fresh + c.stale > 0 then Some (c.gen, c.fresh, c.stale) else None)
        !tallies
      |> combine_generations;
  }

(* Merge ascending runs by scanning the run heads for the least:
   O(total x runs), and callers merge a handful of batches.  The
   annotation keeps the comparisons on unboxed floats. *)
let merge_sorted (runs : float array array) =
  let total = Array.fold_left (fun acc r -> acc + Array.length r) 0 runs in
  let out = Array.make total 0. in
  let pos = Array.make (Array.length runs) 0 in
  for o = 0 to total - 1 do
    let best = ref (-1) in
    for j = 0 to Array.length runs - 1 do
      if
        pos.(j) < Array.length runs.(j)
        && (!best < 0 || runs.(j).(pos.(j)) < runs.(!best).(pos.(!best)))
      then best := j
    done;
    let j = !best in
    out.(o) <- runs.(j).(pos.(j));
    pos.(j) <- pos.(j) + 1
  done;
  out

let merge reports =
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  {
    answered = sum (fun r -> r.answered);
    failed = sum (fun r -> r.failed);
    stale = sum (fun r -> r.stale);
    elapsed_ns = sum (fun r -> r.elapsed_ns);
    latency_sorted =
      merge_sorted
        (Array.of_list (List.map (fun r -> r.latency_sorted) reports));
    by_generation =
      combine_generations (List.concat_map (fun r -> r.by_generation) reports);
  }

let pp_report ppf r =
  Format.fprintf ppf "served %d queries, %d failed, %d stale@." r.answered
    r.failed r.stale;
  Format.fprintf ppf "generations:";
  List.iter
    (fun (g, fresh, stale) ->
      Format.fprintf ppf " gen%d=%d" g (fresh + stale);
      if stale > 0 then Format.fprintf ppf " (stale %d)" stale)
    r.by_generation;
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Answer audit *)

type audit = {
  sampled : int;
  failures : int;
  max_stretch : float;
  dist_bound : float;
}

let audit_ok a = a.failures = 0

let audit ?(samples = 64) ?(seed = 1) snapshot queries =
  let total = Array.length queries in
  let g = Snapshot.graph snapshot in
  let dist_bound = float_of_int ((2 * Snapshot.oracle_k snapshot) - 1) in
  if total = 0 then { sampled = 0; failures = 0; max_stretch = 1.; dist_bound }
  else begin
    let rng = Util.Prng.create ~seed in
    let picks =
      Util.Prng.sample_without_replacement rng ~k:samples ~n:total
    in
    (* Group by source so each BFS serves every sampled query from
       that source. *)
    let by_src : (int, Workload.query list) Hashtbl.t = Hashtbl.create 16 in
    Array.iter
      (fun i ->
        let q = queries.(i) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_src q.Workload.src) in
        Hashtbl.replace by_src q.Workload.src (q :: prev))
      picks;
    let srcs = Hashtbl.fold (fun s _ acc -> s :: acc) by_src [] |> List.sort compare in
    let sampled = ref 0 and failures = ref 0 and max_stretch = ref 1. in
    List.iter
      (fun src ->
        let exact = Graphlib.Bfs.distances g ~src in
        List.iter
          (fun (q : Workload.query) ->
            incr sampled;
            let d = exact.(q.Workload.dst) in
            let answer =
              if q.Workload.route then
                Snapshot.route_hops snapshot q.Workload.src q.Workload.dst
              else Snapshot.distance snapshot q.Workload.src q.Workload.dst
            in
            if d < 0 then begin
              (* Disconnected in the snapshot: the answer must say so. *)
              if answer >= 0 then incr failures
            end
            else if answer < 0 then incr failures
            else begin
              if d > 0 then begin
                let st = float_of_int answer /. float_of_int d in
                if st > !max_stretch then max_stretch := st;
                let bound = if q.Workload.route then 5. else dist_bound in
                if answer < d || st > bound then incr failures
              end
              else if answer <> 0 then incr failures
            end)
          (Hashtbl.find by_src src))
      srcs;
    { sampled = !sampled; failures = !failures; max_stretch = !max_stretch; dist_bound }
  end

let pp_audit ppf a =
  Format.fprintf ppf
    "audit: %d sampled answers vs BFS ground truth, %d violations (max \
     stretch %.2f, bound %.1f): %s"
    a.sampled a.failures a.max_stretch a.dist_bound
    (if audit_ok a then "PASS" else "FAIL")
