(* Per-domain structured event tracer with Chrome trace_event export.

   Every domain that emits through a tracer gets its own preallocated
   ring of parallel arrays (kind byte / interned name id / timestamp /
   integer arg / duration), obtained once through a domain-local-storage
   key, so the hot path is a bounds check plus five array stores — no
   allocation, no locking, no contention with other domains.  Names are
   interned up front (or lazily through {!span}, which amortizes to one
   hashtable lookup); the mutex around the intern table and the buffer
   list is only ever taken on the first event of a domain and on intern,
   never per event.

   Timestamps come from one clock read per event, clamped to be
   monotone per buffer: [Unix.gettimeofday] can step backwards under
   NTP, and a Perfetto track with a backwards [ts] renders garbage, so
   each buffer remembers the last stamp it issued.  Buffers never grow:
   when one fills, further events on that domain are dropped and
   counted, which keeps a runaway instrumentation site from turning the
   tracer into the bottleneck it is meant to find. *)

type kind = Begin | End | Instant | Counter | Complete

let kind_byte = function
  | Begin -> 'B'
  | End -> 'E'
  | Instant -> 'i'
  | Counter -> 'C'
  | Complete -> 'X'

(* [a] is the counter value for [Counter], an optional byte/size arg for
   [End]/[Complete] ([no_arg] = absent), unused otherwise. *)
let no_arg = min_int

type buf = {
  dom : int;  (* Domain id: the exported [tid] *)
  cap : int;
  mutable n : int;
  mutable dropped : int;
  kinds : Bytes.t;
  names : int array;
  ts : float array;  (* seconds since the tracer's epoch *)
  args : int array;
  durs : float array;
  mutable last_ts : float;
}

type t = {
  clock : unit -> float;
  epoch : float;
  capacity : int;
  m : Mutex.t;  (* guards [bufs], [intern_tbl], [names_rev] *)
  mutable bufs : buf list;
  intern_tbl : (string, int) Hashtbl.t;
  mutable names_rev : string list;  (* id = position from the end *)
  mutable n_names : int;
  key : buf option Domain.DLS.key;
}

let create ?(capacity = 1 lsl 16) ?clock () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  {
    clock;
    epoch = clock ();
    capacity;
    m = Mutex.create ();
    bufs = [];
    intern_tbl = Hashtbl.create 64;
    names_rev = [];
    n_names = 0;
    key = Domain.DLS.new_key (fun () -> None);
  }

let intern t name =
  Mutex.lock t.m;
  let id =
    match Hashtbl.find_opt t.intern_tbl name with
    | Some id -> id
    | None ->
      let id = t.n_names in
      Hashtbl.replace t.intern_tbl name id;
      t.names_rev <- name :: t.names_rev;
      t.n_names <- id + 1;
      id
  in
  Mutex.unlock t.m;
  id

let buf_for t =
  match Domain.DLS.get t.key with
  | Some b -> b
  | None ->
    let b =
      {
        dom = (Domain.self () :> int);
        cap = t.capacity;
        n = 0;
        dropped = 0;
        kinds = Bytes.create t.capacity;
        names = Array.make t.capacity 0;
        ts = Array.make t.capacity 0.0;
        args = Array.make t.capacity no_arg;
        durs = Array.make t.capacity 0.0;
        last_ts = 0.0;
      }
    in
    Domain.DLS.set t.key (Some b);
    Mutex.lock t.m;
    t.bufs <- b :: t.bufs;
    Mutex.unlock t.m;
    b

let now t = t.clock () -. t.epoch

let emit t kind name ~arg ~dur ts =
  let b = buf_for t in
  if b.n >= b.cap then b.dropped <- b.dropped + 1
  else begin
    let ts = if ts < b.last_ts then b.last_ts else ts in
    b.last_ts <- ts;
    let i = b.n in
    Bytes.unsafe_set b.kinds i (kind_byte kind);
    b.names.(i) <- name;
    b.ts.(i) <- ts;
    b.args.(i) <- arg;
    b.durs.(i) <- dur;
    b.n <- i + 1
  end

let begin_ t name = emit t Begin name ~arg:no_arg ~dur:0.0 (now t)

let end_ ?(arg = no_arg) t name = emit t End name ~arg ~dur:0.0 (now t)

let instant t name = emit t Instant name ~arg:no_arg ~dur:0.0 (now t)

let counter t name v = emit t Counter name ~arg:v ~dur:0.0 (now t)

let complete ?(arg = no_arg) t name ~start =
  let stop = now t in
  let start = if start < 0.0 then 0.0 else if start > stop then stop else start in
  emit t Complete name ~arg ~dur:(stop -. start) start

let span t name f =
  let id = intern t name in
  begin_ t id;
  Fun.protect ~finally:(fun () -> end_ t id) f

let events t =
  Mutex.lock t.m;
  let n = List.fold_left (fun acc b -> acc + b.n) 0 t.bufs in
  Mutex.unlock t.m;
  n

let dropped t =
  Mutex.lock t.m;
  let n = List.fold_left (fun acc b -> acc + b.dropped) 0 t.bufs in
  Mutex.unlock t.m;
  n

(* ---------- Chrome trace_event serialization ---------- *)

(* The "JSON array format": a bare array of event objects, which both
   Perfetto and chrome://tracing accept (and which, unlike the object
   form, can never be mistaken for a partial document: truncation fails
   to parse). [ts]/[dur] are microseconds. One [thread_name] metadata
   record precedes each domain's events so tracks are labeled. *)

let usec s = Json.Float (s *. 1e6)

let to_json t =
  Mutex.lock t.m;
  (* snapshot each buffer's length under the lock: a domain still
     emitting concurrently only ever grows [n] past the snapshot *)
  let bufs =
    List.map (fun b -> (b, b.n)) (List.sort (fun a b -> compare a.dom b.dom) t.bufs)
  in
  let names = Array.of_list (List.rev t.names_rev) in
  Mutex.unlock t.m;
  let pid = ("pid", Json.Int 0) in
  let events =
    List.concat_map
      (fun (b, b_n) ->
        let tid = ("tid", Json.Int b.dom) in
        let meta =
          Json.Obj
            [
              ("name", Str "thread_name");
              ("ph", Str "M");
              pid;
              tid;
              ( "args",
                Obj [ ("name", Str (Printf.sprintf "domain-%d" b.dom)) ] );
            ]
        in
        let evs =
          List.init b_n (fun i ->
              let name = ("name", Json.Str names.(b.names.(i))) in
              let cat = ("cat", Json.Str "stc") in
              let ts = ("ts", usec b.ts.(i)) in
              let arg_fields label =
                if b.args.(i) = no_arg then []
                else [ ("args", Json.Obj [ (label, Json.Int b.args.(i)) ]) ]
              in
              match Bytes.get b.kinds i with
              | 'B' -> Json.Obj [ name; cat; ("ph", Str "B"); ts; pid; tid ]
              | 'E' ->
                Json.Obj
                  ([ name; cat; ("ph", Str "E"); ts; pid; tid ]
                  @ arg_fields "bytes")
              | 'i' ->
                Json.Obj
                  [ name; cat; ("ph", Str "i"); ("s", Str "t"); ts; pid; tid ]
              | 'C' ->
                Json.Obj
                  [
                    name;
                    cat;
                    ("ph", Str "C");
                    ts;
                    pid;
                    tid;
                    ("args", Obj [ ("value", Int b.args.(i)) ]);
                  ]
              | 'X' ->
                Json.Obj
                  ([
                     name;
                     cat;
                     ("ph", Str "X");
                     ts;
                     ("dur", usec b.durs.(i));
                     pid;
                     tid;
                   ]
                  @ arg_fields "bytes")
              | _ -> assert false)
        in
        meta :: evs)
      bufs
  in
  Json.List events

let to_string t = Json.to_string (to_json t)

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')
