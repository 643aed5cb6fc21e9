module Graph = Graphlib.Graph
module Bfs = Graphlib.Bfs

type t = {
  g : Graph.t;
  landmarks : int list;
  home : int array;  (** nearest landmark per node, -1 unreachable *)
  landmark_next : Table.t;  (** at v: landmark -> next hop *)
  direct_next : Table.t;
      (** at v: destination -> next hop, ball + write-set entries *)
}

let build ~seed g =
  let n = Graph.n g in
  let rng = Util.Prng.create ~seed in
  let q = if n <= 1 then 1. else 1. /. sqrt (float_of_int n) in
  let landmarks =
    let l = List.filter (fun _ -> Util.Prng.bernoulli rng q) (List.init n (fun v -> v)) in
    match l with [] when n > 0 -> [ 0 ] | l -> l
  in
  (* One BFS forest per landmark (landmarks ascend): its parent
     pointers are every node's next hop towards that landmark, and the
     paths the write set registers along. *)
  let parents = Array.make n [||] in
  List.iter
    (fun l -> parents.(l) <- (Bfs.multi_source g ~sources:[ l ]).Bfs.parent)
    landmarks;
  let landmark_next =
    Table.build ~n (fun emit ->
        List.iter
          (fun l -> Array.iteri (fun v p -> if p >= 0 then emit v l p) parents.(l))
          landmarks)
  in
  (* Home landmark = overall nearest. *)
  let home_forest = Bfs.multi_source g ~sources:landmarks in
  let home = home_forest.Bfs.source in
  (* Write set: every node on the shortest path from l(v) to v (in
     l(v)'s BFS tree) learns the next hop towards v.  Destinations are
     visited in ascending id, so each node's keys ascend. *)
  let write_set =
    Table.build ~n (fun emit ->
        for v = 0 to n - 1 do
          let l = home.(v) in
          if l >= 0 && l <> v then begin
            let parent = parents.(l) in
            let rec walk child x =
              emit x v child;
              let p = parent.(x) in
              if x <> l && p >= 0 then walk x p
            in
            walk v parent.(v)
          end
        done)
  in
  (* Ball entries: every node x in the Thorup–Zwick cluster of w
     ({x : delta(x,w) < delta(x,L)}) learns its BFS parent towards w.
     A ball entry replaces a write-set entry for the same destination. *)
  let next_dist =
    Array.map (fun d -> if d < 0 then max_int else d) home_forest.Bfs.dist
  in
  let direct_next =
    Table.build_over ~n write_set (fun emit ->
        Table.iter_clusters g
          ~next_dist:(fun _ -> next_dist)
          (fun w x _ p -> if x <> w then emit x w p))
  in
  { g; landmarks; home; landmark_next; direct_next }

(* The walk [route] and [route_hops] share: the next hop from [x]
   towards [dst] (home landmark [l]), or -1.  Direct entries win; the
   landmark's tree is the fallback. *)
let next_hop t ~dst ~l x =
  let next = Table.find t.direct_next x dst in
  if next >= 0 || l < 0 then next else Table.find t.landmark_next x l

let route t ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let limit = 4 * Graph.n t.g and l = t.home.(dst) in
    let rec walk x acc hops =
      if hops > limit then None
      else if x = dst then Some (List.rev (x :: acc))
      else
        let next = next_hop t ~dst ~l x in
        if next < 0 then None else walk next (x :: acc) (hops + 1)
    in
    walk src [] 0
  end

let rec hops_from t ~dst ~l ~limit x hops =
  if hops > limit then -1
  else if x = dst then hops
  else
    let next = next_hop t ~dst ~l x in
    if next < 0 then -1 else hops_from t ~dst ~l ~limit next (hops + 1)

let route_hops t ~src ~dst =
  if src = dst then 0
  else hops_from t ~dst ~l:t.home.(dst) ~limit:(4 * Graph.n t.g) src 0

let table_size t v = Table.length t.landmark_next v + Table.length t.direct_next v
let total_state t = Table.entries t.landmark_next + Table.entries t.direct_next
let landmarks t = t.landmarks
let home_landmark t v = t.home.(v)
