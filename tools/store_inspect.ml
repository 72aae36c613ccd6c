(* Dump the contents of an artifact store directory (see Stc_store).

     store_inspect DIR [--json] [--strict]

   One line per entry: kind, key, format version, payload size, and
   whether the container checksum verifies. Chunked trace entries
   (Stc_store.Chunked: one trace-man manifest plus trace-seg segment
   containers) additionally get one summary line each — segment count,
   total segment bytes, and per-segment status (CRC, content hash
   against the manifest, missing files). --json emits one JSON object
   per entry (and per manifest summary) instead of the table. --strict
   exits 1 when any entry is corrupt or unreadable, or when any chunked
   entry has a damaged, drifted or missing segment — the store-smoke CI
   alias runs it after a warm pass to assert the cache survived intact.

   Exit codes: 0 ok, 1 corrupt entries under --strict, 2 usage error. *)

module Store = Stc_store
module Json = Stc_obs.Json
module Tbl = Stc_util.Tbl
module Fnv = Stc_util.Fnv
module Segment = Stc_trace.Segment

let usage () =
  prerr_endline "usage: store_inspect DIR [--json] [--strict]";
  exit 2

let parse_args () =
  let dir = ref None and json = ref false and strict = ref false in
  List.iter
    (function
      | "--json" -> json := true
      | "--strict" -> strict := true
      | a when String.length a > 0 && a.[0] = '-' -> usage ()
      | a -> ( match !dir with None -> dir := Some a | Some _ -> usage ()))
    (List.tl (Array.to_list Sys.argv));
  match !dir with None -> usage () | Some d -> (d, !json, !strict)

(* ---------- chunked-entry summaries ---------- *)

type seg_status = Seg_ok of int  (** payload bytes *) | Seg_bad of string

type chunk_summary = {
  c_key : string;
  c_blocks : int;
  c_segments : int;
  c_bytes : int;  (** total payload bytes across intact segments *)
  c_bad : (int * string) list;  (** segment index, what is wrong *)
}

(* Validate one segment of a chunked entry the way Chunked.load does:
   the container must read back (CRC included), decode as a segment of
   the manifest's recorded length, and its ids must fold to their slice
   of the manifest content hash chain. *)
let check_segment dir ~key ~manifest ~index ~base ~hash =
  let sk = Store.Chunked.seg_key key index in
  let path =
    Filename.concat dir
      (Filename.concat Store.Chunked.segment_kind (Store.Key.hex sk ^ ".bin"))
  in
  if not (Sys.file_exists path) then (Seg_bad "missing", hash)
  else
    match Store.payload_of_file path with
    | None -> (Seg_bad "damaged container", hash)
    | Some payload -> (
        match Store.Chunked.decode_segment ~base payload with
        | exception Store.Corrupt m -> (Seg_bad ("corrupt: " ^ m), hash)
        | seg ->
            let expect = manifest.Store.Chunked.m_seg_lens.(index) in
            if Segment.length seg <> expect then
              ( Seg_bad
                  (Printf.sprintf "length %d, manifest says %d"
                     (Segment.length seg) expect),
                hash )
            else begin
              let h = ref hash in
              Segment.iter (fun id -> h := Fnv.int !h id) seg;
              (Seg_ok (String.length payload), !h)
            end)

let summarize_chunk dir (e : Store.entry) =
  let key = Store.Key.of_hex e.Store.e_key in
  match Store.payload_of_file e.Store.e_path with
  | None -> None
  | Some payload -> (
      match Store.Chunked.decode_manifest payload with
      | exception Store.Corrupt _ -> None
      | m ->
          let n = Array.length m.Store.Chunked.m_seg_lens in
          let bytes = ref 0 and bad = ref [] and hash = ref Fnv.empty in
          let base = ref 0 in
          for i = 0 to n - 1 do
            let status, h =
              check_segment dir ~key ~manifest:m ~index:i ~base:!base
                ~hash:!hash
            in
            hash := h;
            base := !base + m.Store.Chunked.m_seg_lens.(i);
            match status with
            | Seg_ok b -> bytes := !bytes + b
            | Seg_bad why -> bad := (i, why) :: !bad
          done;
          let bad =
            if !bad = [] && !hash <> m.Store.Chunked.m_ids_hash then
              [ (-1, "content hash drift") ]
            else List.rev !bad
          in
          Some
            {
              c_key = e.Store.e_key;
              c_blocks = m.Store.Chunked.m_total_blocks;
              c_segments = n;
              c_bytes = !bytes;
              c_bad = bad;
            })

let () =
  let dir, json, strict = parse_args () in
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "store_inspect: %s: not a directory\n" dir;
    exit 2
  end;
  let entries = Store.scan dir in
  let bad = List.filter (fun e -> not e.Store.e_ok) entries in
  let chunks =
    List.filter_map
      (fun (e : Store.entry) ->
        if e.Store.e_ok && e.Store.e_kind = Store.Chunked.manifest_kind then
          summarize_chunk dir e
        else None)
      entries
  in
  let bad_chunks = List.filter (fun c -> c.c_bad <> []) chunks in
  if json then begin
    List.iter
      (fun (e : Store.entry) ->
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("path", Json.Str e.e_path);
                  ("kind", Json.Str e.e_kind);
                  ("key", Json.Str e.e_key);
                  ("version", Json.Int e.e_version);
                  ("payload_bytes", Json.Int e.e_payload_bytes);
                  ("ok", Json.Bool e.e_ok);
                  ( "reason",
                    match e.e_reason with
                    | Some r -> Json.Str r
                    | None -> Json.Null );
                ])))
      entries;
    List.iter
      (fun c ->
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("chunked", Json.Str c.c_key);
                  ("blocks", Json.Int c.c_blocks);
                  ("segments", Json.Int c.c_segments);
                  ("segment_bytes", Json.Int c.c_bytes);
                  ("ok", Json.Bool (c.c_bad = []));
                  ( "bad_segments",
                    Json.List
                      (List.map
                         (fun (i, why) ->
                           Json.Obj
                             [
                               ("segment", Json.Int i); ("reason", Json.Str why);
                             ])
                         c.c_bad) );
                ])))
      chunks
  end
  else begin
    let t =
      Tbl.create
        ~headers:
          [
            ("kind", Tbl.Left);
            ("key", Tbl.Left);
            ("ver", Tbl.Right);
            ("bytes", Tbl.Right);
            ("crc", Tbl.Left);
          ]
    in
    List.iter
      (fun (e : Store.entry) ->
        Tbl.add_row t
          [
            e.e_kind;
            e.e_key;
            string_of_int e.e_version;
            string_of_int e.e_payload_bytes;
            (match e.e_reason with
            | None -> "ok"
            | Some r -> "CORRUPT: " ^ r);
          ])
      entries;
    Tbl.print t;
    Printf.printf "%d entries, %d corrupt\n" (List.length entries)
      (List.length bad);
    if chunks <> [] then begin
      Printf.printf "\nchunked traces:\n";
      List.iter
        (fun c ->
          Printf.printf "  %s: %d blocks in %d segments, %d bytes — %s\n"
            c.c_key c.c_blocks c.c_segments c.c_bytes
            (match c.c_bad with
            | [] -> "all segments ok"
            | l ->
                String.concat ", "
                  (List.map
                     (fun (i, why) ->
                       if i < 0 then why
                       else Printf.sprintf "segment %d %s" i why)
                     l)))
        chunks
    end
  end;
  if strict && (bad <> [] || bad_chunks <> []) then exit 1
