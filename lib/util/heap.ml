type 'a t = { mutable keys : int array; mutable vals : 'a option array; mutable len : int }

let create () = { keys = Array.make 16 0; vals = Array.make 16 None; len = 0 }
let is_empty t = t.len = 0
let length t = t.len

let grow t =
  let n = Array.length t.keys in
  let keys = Array.make (2 * n) 0 and vals = Array.make (2 * n) None in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.keys <- keys;
  t.vals <- vals

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let v = t.vals.(i) in
  t.vals.(i) <- t.vals.(j);
  t.vals.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.keys.(i) < t.keys.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.keys.(l) < t.keys.(!smallest) then smallest := l;
  if r < t.len && t.keys.(r) < t.keys.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~key v =
  if t.len = Array.length t.keys then grow t;
  t.keys.(t.len) <- key;
  t.vals.(t.len) <- Some v;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek_min t =
  if t.len = 0 then None
  else
    match t.vals.(0) with
    | Some v -> Some (t.keys.(0), v)
    | None -> assert false

let pop_min t =
  match peek_min t with
  | None -> None
  | Some _ as result ->
      t.len <- t.len - 1;
      let r = result in
      if t.len > 0 then begin
        t.keys.(0) <- t.keys.(t.len);
        t.vals.(0) <- t.vals.(t.len)
      end;
      t.vals.(t.len) <- None;
      sift_down t 0;
      r

let exists t f =
  let rec go i =
    i < t.len
    && ((match t.vals.(i) with Some v -> f v | None -> false) || go (i + 1))
  in
  go 0
