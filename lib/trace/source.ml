type t = {
  mutable pull : unit -> Segment.t option;
  total_blocks : int;
}

let none () = None

let make ~total_blocks pull =
  let t = { pull = none; total_blocks } in
  (* latch on the first [None] so a sloppy producer can't resurrect *)
  let guarded () =
    match pull () with
    | Some _ as s -> s
    | None ->
      t.pull <- none;
      None
  in
  t.pull <- guarded;
  t

let next_segment t = t.pull ()

let total_blocks t = t.total_blocks

let default_segment_blocks = Recorder.chunk_blocks

let of_recorder ?(segment_blocks = default_segment_blocks) ?(lo = 0) ?hi rec_ =
  if segment_blocks <= 0 then
    invalid_arg "Source.of_recorder: segment_blocks must be positive";
  let len = Recorder.length rec_ in
  let lo = max 0 lo in
  let hi = match hi with None -> len | Some h -> min h len in
  let total = max 0 (hi - lo) in
  let pos = ref lo in
  make ~total_blocks:total (fun () ->
      if !pos >= hi then None
      else begin
        (* never cross a recorder chunk boundary, so every segment is a
           view of a chunk rather than a copy *)
        let chunk_end =
          (!pos / Recorder.chunk_blocks + 1) * Recorder.chunk_blocks
        in
        let n = min segment_blocks (min hi chunk_end - !pos) in
        let seg = Recorder.segment rec_ ~base:!pos ~blocks:n in
        pos := !pos + n;
        (* bases are rebased so index [lo] streams as global index 0: a
           range source is a complete trace in its own right *)
        Some (Segment.make seg.Segment.ids ~base:(Segment.base seg - lo))
      end)

let of_segments segs =
  let total =
    List.fold_left (fun acc s -> acc + Segment.length s) 0 segs
  in
  let rest = ref segs in
  make ~total_blocks:total (fun () ->
      match !rest with
      | [] -> None
      | s :: tl ->
        rest := tl;
        Some s)

let of_array ?(segment_blocks = default_segment_blocks) a =
  if segment_blocks <= 0 then
    invalid_arg "Source.of_array: segment_blocks must be positive";
  let len = Array.length a in
  let pos = ref 0 in
  make ~total_blocks:len (fun () ->
      if !pos >= len then None
      else begin
        let n = min segment_blocks (len - !pos) in
        let ids = Segment.alloc n in
        for i = 0 to n - 1 do
          Bigarray.Array1.unsafe_set ids i (Array.unsafe_get a (!pos + i))
        done;
        let seg = Segment.make ids ~base:!pos in
        pos := !pos + n;
        Some seg
      end)

let iter t f =
  let rec go () =
    match next_segment t with
    | None -> ()
    | Some seg ->
      Segment.iter f seg;
      go ()
  in
  go ()

let to_array t =
  let n = total_blocks t in
  let out = Array.make (max n 1) 0 in
  let pos = ref 0 in
  let rec go () =
    match next_segment t with
    | None -> ()
    | Some seg ->
      Segment.blit_to_array seg out !pos;
      pos := !pos + Segment.length seg;
      go ()
  in
  go ();
  if !pos <> n then invalid_arg "Source.to_array: length lied";
  if n = 0 then [||] else out
