module Segment = Stc_trace.Segment
module Source = Stc_trace.Source

type t = { next_length : unit -> int; fill : int array -> pos:int -> int * int }

let next_length t = t.next_length ()

let fill t words ~pos = t.fill words ~pos

let create tables source =
  (* Hold one id segment in flight and peek the successor's first block
     id before packing, so the boundary taken bit matches the
     whole-trace pack. Empty segments are skipped here — they carry no
     ids and would otherwise break the lookahead. *)
  let rec pull_nonempty () =
    match Source.next_segment source with
    | Some s when Segment.length s = 0 -> pull_nonempty ()
    | x -> x
  in
  let pending = ref (pull_nonempty ()) in
  {
    next_length =
      (fun () -> match !pending with None -> 0 | Some s -> Segment.length s);
    fill =
      (fun words ~pos ->
        match !pending with
        | None -> (0, 0)
        | Some seg ->
          let succ = pull_nonempty () in
          pending := succ;
          Packed.fill tables words ~pos seg
            ~next_first:(Option.map Segment.first succ));
  }

let of_packed p =
  let words = Packed.raw p and len = Packed.length p in
  let piece = Source.default_segment_blocks in
  let at = ref 0 in
  let next_length () = min piece (len - !at) in
  {
    next_length;
    fill =
      (fun dst ~pos ->
        let n = next_length () in
        Array.blit words !at dst pos n;
        (* the image's totals are known; they ride with the first piece *)
        let totals =
          if !at = 0 then (Packed.total_instrs p, Packed.taken_branches p)
          else (0, 0)
        in
        at := !at + n;
        totals);
  }
