(* 2: `table34.cell`/`ablation.cell` events emit `"cfa_kb":null` (not -1)
   for layouts without a Conflict-Free Area.
   3: gave histogram records quantile fields. Exports carry no histogram
   and no span records now; what remains is a subset of schema 3, so the
   number stays. *)
let schema_version = 3

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
  let events =
    List.map
      (fun (kind, fields) ->
        Json.Obj ((("type", Json.Str "event") :: ("kind", Str kind) :: fields)))
      (Registry.events t)
  in
  (meta :: counters) @ gauges @ events

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
