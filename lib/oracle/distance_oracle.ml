module Graph = Graphlib.Graph
module Bfs = Graphlib.Bfs

type t = {
  k : int;
  levels : int array;
  pivots : int array array;  (** pivots.(i).(v) = p_i(v), -1 if none *)
  pivot_dist : int array array;
  bunches : Table.t;  (** at v: w -> delta(v,w) *)
}

let draw_levels rng ~n ~k =
  let p = float_of_int n ** (-1. /. float_of_int k) in
  Array.init n (fun _ ->
      let rec climb i =
        if i >= k - 1 then k - 1
        else if Util.Prng.bernoulli rng p then climb (i + 1)
        else i
      in
      climb 0)

let build ~k ~seed g =
  if k < 1 then invalid_arg "Distance_oracle.build: k must be >= 1";
  let n = Graph.n g in
  let rng = Util.Prng.create ~seed in
  let levels = draw_levels rng ~n ~k in
  let members i =
    let acc = ref [] in
    Array.iteri (fun v l -> if l >= i then acc := v :: !acc) levels;
    !acc
  in
  let pivots = Array.make k [||] in
  let pivot_dist = Array.make k [||] in
  let dist_to_level = Array.make (k + 1) [||] in
  for i = 0 to k - 1 do
    let f = Bfs.multi_source g ~sources:(members i) in
    pivots.(i) <- f.Bfs.source;
    pivot_dist.(i) <- f.Bfs.dist;
    dist_to_level.(i) <- Array.map (fun d -> if d < 0 then max_int else d) f.Bfs.dist
  done;
  (* A_k = empty: delta(v, A_k) = infinity. *)
  dist_to_level.(k) <- Array.make n max_int;
  (* A level-i center w's cluster {v : delta(v,w) < delta(v,A_{i+1})}
     is exactly the set of vertices whose bunch receives w. *)
  let bunches =
    Table.build ~n (fun emit ->
        Table.iter_clusters g
          ~next_dist:(fun w -> dist_to_level.(levels.(w) + 1))
          (fun w v d _ -> emit v w d))
  in
  { k; levels; pivots; pivot_dist; bunches }

(* [est t i u v]: the estimate from level [i] up, alternating the
   roles of [u] and [v]; a top-level function so a query allocates no
   closure. *)
let rec est t i u v =
  if i >= t.k then -1
  else
    let w = t.pivots.(i).(u) in
    if w < 0 then -1
    else
      let dwv = Table.find t.bunches v w in
      if dwv >= 0 then t.pivot_dist.(i).(u) + dwv else est t (i + 1) v u

let query_est t u v = if u = v then 0 else est t 0 u v

let query t u v =
  let d = query_est t u v in
  if d < 0 then None else Some d

let k t = t.k
let size t = Table.entries t.bunches + (t.k * Array.length t.levels)
let bunch_size t v = Table.length t.bunches v + t.k
let levels t = t.levels
