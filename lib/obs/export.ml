module Stats = Stc_util.Stats

(* 2: `table34.cell`/`ablation.cell` events emit `"cfa_kb":null` (not -1)
   for layouts without a Conflict-Free Area.
   3: histo records carry p50/p90/p99 summary fields (bucket lower
   bounds, so they stay exact across shard merges); Diff treats them as
   optional, so schema-2 exports still compare clean. *)
let schema_version = 3

(* Quantile summaries over the geometric buckets: each bucket's lower
   bound stands in for its values, so the result is one of the bucket
   bounds — deterministic, and invariant under shard merging (which
   unions buckets weight-for-weight). [null] on an empty histogram. *)
let histo_quantiles h =
  match Metric.Histogram.buckets h with
  | [] -> [ ("p50", Json.Null); ("p90", Json.Null); ("p99", Json.Null) ]
  | bks ->
    let pairs = Array.of_list (List.map (fun (lo, _, w) -> (lo, w)) bks) in
    let q p = Json.Float (Stats.weighted_percentile pairs p) in
    [ ("p50", q 0.5); ("p90", q 0.9); ("p99", q 0.99) ]

let records t =
  let meta = Json.Obj [ ("type", Str "meta"); ("schema", Int schema_version) ] in
  let counters =
    List.map
      (fun (name, v) ->
        Json.Obj [ ("type", Str "counter"); ("name", Str name); ("value", Int v) ])
      (Registry.counters t)
  in
  let gauges =
    List.map
      (fun (name, v) ->
        Json.Obj [ ("type", Str "gauge"); ("name", Str name); ("value", Float v) ])
      (Registry.gauges t)
  in
  let histos =
    List.map
      (fun (name, h) ->
        Json.Obj
          ([
             ("type", Json.Str "histo");
             ("name", Json.Str name);
             ("total", Json.Int (Metric.Histogram.total h));
           ]
          @ histo_quantiles h
          @ [
              ( "buckets",
                Json.List
                  (List.map
                     (fun (lo, hi, w) ->
                       Json.List [ Json.Int lo; Json.Int hi; Json.Int w ])
                     (Metric.Histogram.buckets h)) );
            ]))
      (Registry.histograms t)
  in
  let spans =
    List.map
      (fun (i : Registry.Span.info) ->
        Json.Obj
          [
            ("type", Str "span");
            ("path", Str i.Registry.Span.path);
            ("depth", Int i.Registry.Span.depth);
            ("calls", Int i.Registry.Span.calls);
            ("seconds", Float i.Registry.Span.seconds);
          ])
      (Registry.spans t)
  in
  let events =
    List.map
      (fun (kind, fields) ->
        Json.Obj ((("type", Json.Str "event") :: ("kind", Str kind) :: fields)))
      (Registry.events t)
  in
  (meta :: counters) @ gauges @ histos @ spans @ events

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Json.to_string r);
      Buffer.add_char buf '\n')
    (records t);
  Buffer.contents buf

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl t))
