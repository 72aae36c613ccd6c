(* Structured event tracer with Chrome trace_event export.

   A traced run emits one event per phase, layout build, fused group,
   pool chunk or store operation: a few hundred to a few thousand in
   all.  One mutex-guarded list is all the storage that takes: the
   emitting domain reads the clock, then prepends one record under the
   lock.  A domain's events enter the log in its emission order, which
   is all the export needs to rebuild each domain's track.

   Timestamps are clamped monotone per domain on export:
   [Unix.gettimeofday] can step backwards under NTP, and a Perfetto
   track with a backwards [ts] renders garbage. *)

type phase =
  | Begin
  | End
  | Counter of int
  | Complete of { dur : float; bytes : int option }

type event = { dom : int; name : string; ts : float; phase : phase }

type t = {
  clock : unit -> float;
  epoch : float;
  m : Mutex.t;
  mutable log : event list;  (* newest first *)
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; epoch = clock (); m = Mutex.create (); log = [] }

let now t = t.clock () -. t.epoch

let emit t name ts phase =
  let ev = { dom = (Domain.self () :> int); name; ts; phase } in
  Mutex.protect t.m (fun () -> t.log <- ev :: t.log)

let span t name f =
  emit t name (now t) Begin;
  Fun.protect ~finally:(fun () -> emit t name (now t) End) f

let complete ?arg t name ~start =
  let stop = now t in
  let start = if start < 0.0 then 0.0 else if start > stop then stop else start in
  emit t name start (Complete { dur = stop -. start; bytes = arg })

let counter t name v = emit t name (now t) (Counter v)

let events t = Mutex.protect t.m (fun () -> List.length t.log)

(* ---------- Chrome trace_event serialization ---------- *)

(* The "JSON array format": a bare array of event objects, which both
   Perfetto and chrome://tracing accept (and which, unlike the object
   form, can never be mistaken for a partial document: truncation fails
   to parse). [ts]/[dur] are microseconds. One [thread_name] metadata
   record precedes each domain's events so tracks are labeled. *)

let usec s = Json.Float (s *. 1e6)

let to_json t =
  let pid = ("pid", Json.Int 0) in
  let meta dom =
    Json.Obj
      [
        ("name", Str "thread_name");
        ("ph", Str "M");
        pid;
        ("tid", Int dom);
        ("args", Obj [ ("name", Str (Printf.sprintf "domain-%d" dom)) ]);
      ]
  in
  let record ev ts =
    let head ph =
      [
        ("name", Json.Str ev.name);
        ("cat", Str "stc");
        ("ph", Str ph);
        ("ts", usec ts);
      ]
    in
    let ids = [ pid; ("tid", Json.Int ev.dom) ] in
    match ev.phase with
    | Begin -> Json.Obj (head "B" @ ids)
    | End -> Json.Obj (head "E" @ ids)
    | Counter v ->
      Json.Obj (head "C" @ ids @ [ ("args", Obj [ ("value", Int v) ]) ])
    | Complete { dur; bytes } ->
      let args =
        match bytes with
        | Some b -> [ ("args", Json.Obj [ ("bytes", Int b) ]) ]
        | None -> []
      in
      Json.Obj (head "X" @ (("dur", usec dur) :: ids) @ args)
  in
  (* the stable sort keeps each domain's events in emission order; [last]
     is the stamp last issued on the current domain *)
  let _, _, out =
    List.fold_left
      (fun (dom, last, out) ev ->
        let out, last =
          if ev.dom = dom then (out, last) else (meta ev.dom :: out, 0.0)
        in
        let ts = Float.max last ev.ts in
        (ev.dom, ts, record ev ts :: out))
      (-1, 0.0, [])
      (List.stable_sort
         (fun a b -> Int.compare a.dom b.dom)
         (Mutex.protect t.m (fun () -> List.rev t.log)))
  in
  Json.List (List.rev out)

let write_file t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')
