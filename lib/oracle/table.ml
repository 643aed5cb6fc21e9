module Graph = Graphlib.Graph

type t = {
  off : int array;  (** node v's entries are [off.(v) .. off.(v+1) - 1] *)
  kv : int array;  (** entry i: key at 2i, value at 2i+1 *)
}

let build ~n emitter =
  let off = Array.make (n + 1) 0 in
  emitter (fun v _ _ -> off.(v + 1) <- off.(v + 1) + 1);
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let kv = Array.make (2 * off.(n)) 0 in
  let fill = Array.sub off 0 n in
  emitter (fun v k x ->
      let i = fill.(v) in
      if i >= off.(v + 1) || (i > off.(v) && kv.(2 * (i - 1)) >= k) || x < 0
      then
        invalid_arg
          "Table.build: keys must strictly ascend per node, values be >= 0";
      kv.(2 * i) <- k;
      kv.((2 * i) + 1) <- x;
      fill.(v) <- i + 1);
  { off; kv }

let build_over ~n base emitter =
  let cur = Array.make n 0 in
  build ~n (fun emit ->
      Array.blit base.off 0 cur 0 n;
      (* Emit [base]'s entries at [v] below key [k], and drop one equal
         to [k]: the emitted entry replaces it. *)
      let below v k =
        let stop = base.off.(v + 1) in
        let i = ref cur.(v) in
        while !i < stop && base.kv.(2 * !i) < k do
          emit v base.kv.(2 * !i) base.kv.((2 * !i) + 1);
          incr i
        done;
        if !i < stop && base.kv.(2 * !i) = k then incr i;
        cur.(v) <- !i
      in
      emitter (fun v k x ->
          below v k;
          emit v k x);
      for v = 0 to n - 1 do
        below v max_int
      done)

let rec search kv k lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let km = Array.unsafe_get kv (2 * mid) in
    if km = k then Array.unsafe_get kv ((2 * mid) + 1)
    else if km < k then search kv k (mid + 1) hi
    else search kv k lo mid

let find t v k = search t.kv k t.off.(v) t.off.(v + 1)

let length t v = t.off.(v + 1) - t.off.(v)
let entries t = t.off.(Array.length t.off - 1)

let iter_clusters g ~next_dist f =
  let n = Graph.n g in
  (* [seen.(v)] is the last center whose cluster admitted [v]. *)
  let seen = Array.make n (-1) and dist = Array.make n 0 in
  let queue = Array.make n 0 and tail = ref 0 in
  let center = ref 0 and x = ref 0 and next = ref [||] in
  (* One closure for the whole search, not one per visited node. *)
  let admit y _ =
    if seen.(y) <> !center then begin
      let dy = dist.(!x) + 1 in
      if dy < (!next).(y) then begin
        seen.(y) <- !center;
        dist.(y) <- dy;
        queue.(!tail) <- y;
        incr tail;
        f !center y dy !x
      end
    end
  in
  for w = 0 to n - 1 do
    center := w;
    next := next_dist w;
    seen.(w) <- w;
    dist.(w) <- 0;
    queue.(0) <- w;
    tail := 1;
    f w w 0 w;
    let head = ref 0 in
    while !head < !tail do
      x := queue.(!head);
      incr head;
      Graph.iter_neighbors g !x admit
    done
  done
