(* Chrome trace-event ("Perfetto") export.  The format is the JSON
   object form: {"traceEvents":[...]} with complete ("X") events whose
   ts/dur are microseconds; we map one simulated round to 1000 us. *)

let us_per_round = 1000

let pid_of (s : Span.record) =
  match s.kind with
  | Span.Phase | Span.Call -> 0
  | Span.Message -> 1
  | Span.Cluster -> 2
  | Span.Arq | Span.Retransmit -> 3

let tid_of (s : Span.record) =
  match s.kind with
  | Span.Phase | Span.Call -> 0
  | _ -> max 0 s.src

let name_of (s : Span.record) =
  if s.name <> "" then s.name
  else if s.dst >= 0 then Printf.sprintf "%d->%d" s.src s.dst
  else Span.kind_name s.kind

let event (s : Span.record) =
  let b = Buffer.create 160 in
  let stop = if s.stop_round >= 0 then s.stop_round else s.start_round in
  Buffer.add_string b
    (Printf.sprintf
       {|{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":%s,"cat":%s|}
       (pid_of s) (tid_of s)
       (s.start_round * us_per_round)
       ((stop - s.start_round) * us_per_round)
       (Jsonl.quote (name_of s))
       (Jsonl.quote (Span.kind_name s.kind)));
  Buffer.add_string b (Printf.sprintf {|,"args":{"span_id":%d|} s.id);
  if s.words > 0 then Buffer.add_string b (Printf.sprintf {|,"words":%d|} s.words);
  if s.parent >= 0 then
    Buffer.add_string b (Printf.sprintf {|,"parent":%d|} s.parent);
  if s.ls <> 0 || s.ld <> 0 then
    Buffer.add_string b (Printf.sprintf {|,"lamport_send":%d,"lamport_deliver":%d|} s.ls s.ld);
  (match s.status with
  | Span.Delivered -> ()
  | Span.Open -> Buffer.add_string b {|,"status":"open"|}
  | Span.Dropped reason ->
      Buffer.add_string b
        (Printf.sprintf {|,"status":"dropped","reason":%s|} (Jsonl.quote reason)));
  Buffer.add_string b "}}";
  Buffer.contents b

let process_name pid name =
  Printf.sprintf
    {|{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}|}
    pid (Jsonl.quote name)

(* GC counter tracks live in their own process so Perfetto renders
   them as graphs under the span timeline: heap size is an absolute
   level, the other two are per-round activity. *)
let counters_pid = 4

let counter_event ~ts name value =
  Printf.sprintf
    {|{"ph":"C","pid":%d,"tid":0,"ts":%d,"name":%s,"args":{"value":%d}}|}
    counters_pid ts (Jsonl.quote name) value

let export ?(counters = []) records file =
  let tracks =
    [ (0, "phases"); (1, "messages"); (2, "clusters"); (3, "arq") ]
  in
  let used = List.map pid_of records in
  let metas =
    List.filter_map
      (fun (pid, name) ->
        if pid = 0 || List.mem pid used then Some (process_name pid name)
        else None)
      tracks
  in
  let metas =
    if counters = [] then metas
    else metas @ [ process_name counters_pid "gc counters" ]
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      let n = ref 0 in
      let emit line =
        if !n > 0 then output_string oc ",\n";
        output_string oc line;
        incr n
      in
      List.iter emit metas;
      List.iter (fun s -> emit (event s)) records;
      List.iter
        (fun (s : Prof.round_sample) ->
          let ts = s.Prof.round * us_per_round in
          emit (counter_event ~ts "heap_words" s.Prof.heap_words);
          emit (counter_event ~ts "minor_words_per_round" s.Prof.r_minor_words);
          emit (counter_event ~ts "minor_collections_per_round" s.Prof.r_minors))
        counters;
      output_string oc "\n]}\n";
      !n)
