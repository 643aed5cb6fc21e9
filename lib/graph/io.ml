let to_channel g oc =
  Printf.fprintf oc "%d %d\n" (Graph.n g) (Graph.m g);
  Graph.iter_edges g (fun _ u v -> Printf.fprintf oc "%d %d\n" u v)

let to_buffer g b =
  Buffer.add_string b (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun _ u v ->
      Buffer.add_string b (Printf.sprintf "%d %d\n" u v))

let write g path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel g oc)

(* The parser over any line source: skip blanks and '#' comments, read
   the "[n] [m]" header, then m edge lines.  [next_line] raises
   [End_of_file] when the source is dry.  Every malformed input fails
   with one [Failure "<source>:<line>: <what>"]. *)
let parse ~source next_line =
  let line = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun what -> failwith (Printf.sprintf "%s:%d: %s" source !line what))
      fmt
  in
  let rec read_line expected =
    incr line;
    match String.trim (next_line ()) with
    | exception End_of_file ->
        fail "unexpected end of input, expected %s" expected
    | "" -> read_line expected
    | l when l.[0] = '#' -> read_line expected
    | l -> l
  in
  let pair what l =
    match List.map int_of_string_opt (String.split_on_char ' ' l) with
    | [ Some a; Some b ] -> (a, b)
    | _ -> fail "malformed %s %S" what l
  in
  let n, m = pair "header" (read_line "the \"n m\" header") in
  if n < 0 || m < 0 then fail "negative count in header \"%d %d\"" n m;
  if n >= Sys.max_array_length then fail "vertex count %d too large" n;
  let b = Graph.Builder.create ~n in
  for i = 1 to m do
    let expected = Printf.sprintf "%d edge lines, found %d" m (i - 1) in
    let u, v = pair "edge line" (read_line expected) in
    if u < 0 || u >= n || v < 0 || v >= n then
      fail "edge %d %d: vertex out of range for n = %d" u v n;
    Graph.Builder.add_edge b u v
  done;
  Graph.Builder.build b

let of_channel ?(source = "<channel>") ic =
  parse ~source (fun () -> input_line ic)

let of_string ?(source = "<string>") s =
  let pos = ref 0 in
  let next_line () =
    if !pos >= String.length s then raise End_of_file
    else
      let stop =
        match String.index_from_opt s !pos '\n' with
        | Some i -> i
        | None -> String.length s
      in
      let line = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      line
  in
  parse ~source next_line

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_channel ~source:path ic)
