module Fnv = Stc_util.Fnv
module Crc32 = Stc_util.Crc32
module Tracer = Stc_obs.Trace
module Program = Stc_cfg.Program
module Proc = Stc_cfg.Proc
module Block = Stc_cfg.Block
module Terminator = Stc_cfg.Terminator
module Recorder = Stc_trace.Recorder
module Segment = Stc_trace.Segment
module Source = Stc_trace.Source
module Engine = Stc_fetch.Engine

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

module Key = struct
  type t = string

  let of_parts parts =
    List.fold_left
      (fun h p -> Fnv.string (Fnv.int h (String.length p)) p)
      Fnv.empty parts
    |> Fnv.to_hex

  let hex k = k

  (* Keys are their hex rendering, so reconstructing one from a scanned
     file name is the identity. *)
  let of_hex h = h
end

(* ------------------------------------------------------------------ *)
(* Binary payload codecs: LEB128 varints for the (non-negative) ints
   that dominate every artifact, raw little-endian words for the rest.
   [Dec] raises {!Corrupt} on any malformed input, including trailing
   bytes, so a CRC-valid payload from a buggy or foreign writer still
   degrades to a recomputation. *)

module Enc = struct
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u32 b v =
    u8 b v;
    u8 b (v lsr 8);
    u8 b (v lsr 16);
    u8 b (v lsr 24)

  let varint b v =
    if v < 0 then invalid_arg "Stc_store.Enc.varint: negative";
    let rec go v =
      if v < 0x80 then u8 b v
      else begin
        u8 b (0x80 lor (v land 0x7f));
        go (v lsr 7)
      end
    in
    go v

  let i64 b v =
    for i = 0 to 7 do
      u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

  let float b v = i64 b (Int64.bits_of_float v)

  let str b s =
    varint b (String.length s);
    Buffer.add_string b s
end

module Dec = struct
  type t = { s : string; mutable pos : int }

  let make s = { s; pos = 0 }

  let u8 d =
    if d.pos >= String.length d.s then corrupt "unexpected end of payload";
    let v = Char.code d.s.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let u32 d =
    let a = u8 d in
    let b = u8 d in
    let c = u8 d in
    let e = u8 d in
    a lor (b lsl 8) lor (c lsl 16) lor (e lsl 24)

  let varint d =
    let rec go shift acc =
      if shift > 62 then corrupt "varint too long";
      let byte = u8 d in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then acc else go (shift + 7) acc
    in
    let v = go 0 0 in
    if v < 0 then corrupt "varint out of range";
    v

  let i64 d =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 d)) (8 * i))
    done;
    !v

  let float d = Int64.float_of_bits (i64 d)

  let str d =
    let n = varint d in
    if d.pos + n > String.length d.s then corrupt "string runs past payload";
    let s = String.sub d.s d.pos n in
    d.pos <- d.pos + n;
    s

  let finish d =
    if d.pos <> String.length d.s then
      corrupt "%d trailing bytes" (String.length d.s - d.pos)
end

(* ------------------------------------------------------------------ *)
(* The on-disk container. *)

let magic = "STCA"

let container_version = 1

type warning = { artifact : string; key : string; reason : string }

type t = {
  dir : string;
  tracer : Tracer.t option;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable corrupt_n : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable warnings_rev : warning list;
}

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?trace dirname =
  (* a directory that cannot be created leaves a broken cache, not a
     failed run: lookups miss and [write] warns *)
  (try mkdir_p dirname with Unix.Unix_error _ -> ());
  {
    dir = dirname;
    tracer = trace;
    hits = 0;
    misses = 0;
    writes = 0;
    corrupt_n = 0;
    bytes_read = 0;
    bytes_written = 0;
    warnings_rev = [];
  }

let of_ctx ctx =
  Option.map (open_ ?trace:ctx.Stc_obs.Run.trace) ctx.Stc_obs.Run.store

let warning t ~kind ~key ~reason =
  t.warnings_rev <-
    { artifact = kind; key = Key.hex key; reason } :: t.warnings_rev

let warnings t = List.rev t.warnings_rev

let entry_path t ~kind key =
  Filename.concat (Filename.concat t.dir kind) (Key.hex key ^ ".bin")

(* Parse a whole entry file. [Error (`Damage reason)] is physical
   corruption (counts on [store.corrupt]); [Error (`Stale reason)] is a
   well-formed entry from another format generation. *)
let parse_entry contents =
  let n = String.length contents in
  let header_err reason = Error (`Damage reason) in
  if n < String.length magic + 1 then header_err "truncated header"
  else if String.sub contents 0 (String.length magic) <> magic then
    header_err "bad magic"
  else
    let d = Dec.make contents in
    d.Dec.pos <- String.length magic;
    match
      let cv = Dec.u8 d in
      let kind = Dec.str d in
      let version = Dec.u32 d in
      let payload_len = Dec.u32 d in
      (cv, kind, version, payload_len)
    with
    | exception Corrupt reason -> header_err reason
    | cv, kind, version, payload_len ->
        if cv <> container_version then
          Error (`Stale (Printf.sprintf "container version %d" cv))
        else
          let pos = d.Dec.pos in
          if payload_len < 0 || pos + payload_len + 4 <> n then
            header_err "payload length mismatch"
          else
            let crc_stored =
              d.Dec.pos <- pos + payload_len;
              Dec.u32 d
            in
            if Crc32.sub contents ~pos ~len:payload_len <> crc_stored then
              header_err "checksum mismatch"
            else Ok (kind, version, String.sub contents pos payload_len)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Some contents
  | exception Sys_error _ -> None

type outcome =
  | Hit of string
  | Miss
  | Stale of string
  | Damaged of string

let lookup t ~kind ~version key =
  let path = entry_path t ~kind key in
  if not (Sys.file_exists path) then Miss
  else
    match read_file path with
    | None -> Stale "unreadable file"
    | Some contents -> (
        match parse_entry contents with
        | Error (`Damage reason) -> Damaged reason
        | Error (`Stale reason) -> Stale reason
        | Ok (k, v, payload) ->
            if k <> kind then
              Damaged (Printf.sprintf "kind %S in a %S entry" k kind)
            else if v <> version then
              Stale (Printf.sprintf "format version %d, want %d" v version)
            else Hit payload)

let count_non_hit t ~kind ~key = function
  | Hit _ -> assert false
  | Miss -> t.misses <- t.misses + 1
  | Stale reason ->
      t.misses <- t.misses + 1;
      warning t ~kind ~key ~reason
  | Damaged reason ->
      t.misses <- t.misses + 1;
      t.corrupt_n <- t.corrupt_n + 1;
      warning t ~kind ~key ~reason

(* Timeline bookkeeping around one lookup (or write): the slice name is
   picked at the end, when the outcome is known, so hits and misses get
   distinct Perfetto tracks; [bytes] rides along as the slice's argument.
   Without a tracer, no clock is read. *)
let op_start t = match t.tracer with Some tr -> Tracer.now tr | None -> 0.0

let op_finish t slice ~bytes start =
  match t.tracer with
  | None -> ()
  | Some tr -> Tracer.complete ~arg:bytes tr slice ~start

(* The one lookup path: on a CRC-valid payload the decoder rejects,
   count the entry as damaged, not as a hit. *)
let load_with t ~kind ~version ~decode key =
  let clk = op_start t in
  match lookup t ~kind ~version key with
  | Hit payload -> (
      match decode payload with
      | v ->
          let bytes = String.length payload in
          t.hits <- t.hits + 1;
          t.bytes_read <- t.bytes_read + bytes;
          op_finish t "store.hit" ~bytes clk;
          Some v
      | exception Corrupt reason ->
          count_non_hit t ~kind ~key (Damaged reason);
          op_finish t "store.miss" ~bytes:0 clk;
          None)
  | other ->
      count_non_hit t ~kind ~key other;
      op_finish t "store.miss" ~bytes:0 clk;
      None

let read t ~kind ~version key = load_with t ~kind ~version ~decode:Fun.id key

let tmp_counter = Atomic.make 0

let write t ~kind ~version key payload =
  let clk = op_start t in
  Fun.protect ~finally:(fun () ->
      op_finish t "store.write" ~bytes:(String.length payload) clk)
  @@ fun () ->
  let path = entry_path t ~kind key in
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b magic;
  Enc.u8 b container_version;
  Enc.str b kind;
  Enc.u32 b version;
  Enc.u32 b (String.length payload);
  Buffer.add_string b payload;
  Enc.u32 b (Crc32.string payload);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  match
    mkdir_p (Filename.dirname path);
    Out_channel.with_open_bin tmp (fun oc -> Buffer.output_buffer oc b);
    Sys.rename tmp path
  with
  | () ->
      t.writes <- t.writes + 1;
      t.bytes_written <- t.bytes_written + String.length payload
  | exception Sys_error reason ->
      (try Sys.remove tmp with Sys_error _ -> ());
      warning t ~kind ~key ~reason
  | exception Unix.Unix_error (e, _, _) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      warning t ~kind ~key ~reason:(Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Typed artifacts. *)

(* Chunked traces: a manifest record plus one CRC-checked container per
   segment. [load] adopts the validated segments as the recorder's
   chunks, and damage is repaired at segment granularity (a re-[save]
   rewrites only the segments that fail to read back). *)
module Chunked = struct
  let manifest_kind = "trace-man"

  let segment_kind = "trace-seg"

  let version = 1

  type manifest = {
    m_total_blocks : int;
    m_segment_blocks : int;
    m_seg_lens : int array;
    m_marks : (string * int) list;
    m_ids_hash : int64;  (* Recorder.hash of the concatenated ids *)
  }

  let seg_key key i =
    Key.of_parts [ segment_kind; Key.hex key; string_of_int i ]

  let encode_manifest m =
    let b = Buffer.create 256 in
    Enc.varint b m.m_total_blocks;
    Enc.varint b m.m_segment_blocks;
    Enc.varint b (Array.length m.m_seg_lens);
    Array.iter (Enc.varint b) m.m_seg_lens;
    Enc.varint b (List.length m.m_marks);
    List.iter
      (fun (name, pos) ->
        Enc.str b name;
        Enc.varint b pos)
      m.m_marks;
    Enc.i64 b m.m_ids_hash;
    Buffer.contents b

  let decode_manifest payload =
    let d = Dec.make payload in
    let m_total_blocks = Dec.varint d in
    let m_segment_blocks = Dec.varint d in
    let n_segs = Dec.varint d in
    let m_seg_lens = Array.init n_segs (fun _ -> Dec.varint d) in
    let n_marks = Dec.varint d in
    let m_marks =
      List.init n_marks (fun _ ->
          let name = Dec.str d in
          let pos = Dec.varint d in
          (name, pos))
    in
    let m_ids_hash = Dec.i64 d in
    Dec.finish d;
    if Array.fold_left ( + ) 0 m_seg_lens <> m_total_blocks then
      corrupt "segment lengths do not sum to the total";
    { m_total_blocks; m_segment_blocks; m_seg_lens; m_marks; m_ids_hash }

  let encode_segment seg =
    let n = Segment.length seg in
    let b = Buffer.create ((n * 2) + 8) in
    Enc.varint b n;
    for i = 0 to n - 1 do
      Enc.varint b (Segment.get seg i)
    done;
    Buffer.contents b

  let decode_segment ~base payload =
    let d = Dec.make payload in
    let n = Dec.varint d in
    let ids = Segment.alloc n in
    for i = 0 to n - 1 do
      Bigarray.Array1.set ids i (Dec.varint d)
    done;
    Dec.finish d;
    Segment.make ids ~base

  let load_manifest t ~key =
    load_with t ~kind:manifest_kind ~version ~decode:decode_manifest key

  let load_segment t ~key ~base =
    load_with t ~kind:segment_kind ~version ~decode:(decode_segment ~base) key

  let save ?(segment_blocks = Source.default_segment_blocks) t ~key r =
    if segment_blocks <= 0 then
      invalid_arg "Chunked.save: segment_blocks must be positive";
    let len = Recorder.length r in
    let n_segs = (len + segment_blocks - 1) / segment_blocks in
    let m_seg_lens = Array.make n_segs 0 in
    (* segments first, manifest last: a crash mid-save leaves segments
       without a manifest (a plain miss), never a manifest pointing at
       absent segments *)
    for i = 0 to n_segs - 1 do
      let base = i * segment_blocks in
      let blocks = min segment_blocks (len - base) in
      m_seg_lens.(i) <- blocks;
      let sk = seg_key key i in
      let fresh = Recorder.segment r ~base ~blocks in
      let intact =
        match load_segment t ~key:sk ~base with
        | Some old when Segment.length old = blocks ->
          let rec eq j =
            j >= blocks
            || (Segment.get old j = Segment.get fresh j && eq (j + 1))
          in
          eq 0
        | Some _ | None -> false
      in
      if not intact then
        write t ~kind:segment_kind ~version sk (encode_segment fresh)
    done;
    let m =
      {
        m_total_blocks = len;
        m_segment_blocks = segment_blocks;
        m_seg_lens;
        m_marks = Recorder.marks r;
        m_ids_hash = Recorder.hash r;
      }
    in
    write t ~kind:manifest_kind ~version key (encode_manifest m)

  (* Read and CRC-check every segment of the entry once and fold the
     content hash, so a damaged or foreign segment degrades to a
     recompute rather than a wrong trace. Returns the manifest and the
     intact segments, in order. *)
  let validate t ~key =
    match load_manifest t ~key with
    | None -> None
    | Some m ->
      let n_segs = Array.length m.m_seg_lens in
      let ok = ref true in
      let base = ref 0 in
      let h = ref Fnv.empty in
      let segs = ref [] in
      for i = 0 to n_segs - 1 do
        if !ok then begin
          match load_segment t ~key:(seg_key key i) ~base:!base with
          | Some s when Segment.length s = m.m_seg_lens.(i) ->
            h := Fnv.int_bigarray !h s.Segment.ids;
            base := !base + m.m_seg_lens.(i);
            segs := s :: !segs
          | Some _ | None -> ok := false
        end
      done;
      if (not !ok) || !base <> m.m_total_blocks || !h <> m.m_ids_hash then begin
        if !ok then
          warning t ~kind:manifest_kind ~key ~reason:"segment content drift";
        None
      end
      else Some (m, List.rev !segs)

  (* The segments validated are the recorder's contents: each is read
     once, and whole chunks are adopted without a copy. *)
  let load t ~key =
    Option.map
      (fun (m, segs) -> Recorder.of_segments segs ~marks:m.m_marks)
      (validate t ~key)
end

module Layout = struct
  let kind = "layout"

  let version = 1

  let encode (l : Stc_layout.Layout.t) =
    let b = Buffer.create 1024 in
    Enc.str b l.Stc_layout.Layout.name;
    let addr = l.Stc_layout.Layout.addr in
    Enc.varint b (Array.length addr);
    Array.iter (Enc.varint b) addr;
    Buffer.contents b

  let decode payload =
    let d = Dec.make payload in
    let name = Dec.str d in
    let n = Dec.varint d in
    let addr = Array.init n (fun _ -> Dec.varint d) in
    Dec.finish d;
    { Stc_layout.Layout.name; addr }

  (* A CRC-valid entry of another length would index out of bounds in
     the replay, so it is damage. Only the length is checked: an
     overlap sort would cost every warm load. *)
  let load t ~blocks ~key =
    let decode payload =
      let l = decode payload in
      let n = Array.length l.Stc_layout.Layout.addr in
      if n <> blocks then corrupt "layout of %d blocks, want %d" n blocks;
      l
    in
    load_with t ~kind ~version ~decode key

  let save t ~key l = write t ~kind ~version key (encode l)

  let cached store ~blocks ~key compute =
    match store with
    | None -> compute ()
    | Some t -> (
      match load t ~blocks ~key with
      | Some l -> l
      | None ->
        let l = compute () in
        save t ~key l;
        l)
end

module Result = struct
  let kind = "result"

  (* v2 appends the replacement/prefetch family; v1 entries decode as
     Stale and re-simulate, never as silently-zeroed results *)
  let version = 2

  (* binds every field, so a new one does not compile until it is
     encoded *)
  let encode
      { Engine.instrs; cycles; fetch_cycles; seq_cycles; tc_cycles;
        icache_accesses; icache_misses; icache_victim_hits; tc_lookups;
        tc_hits; taken_branches; instrs_between_taken; cond_branches;
        mispredictions; icache_evictions; prefetch_issued; prefetch_completed;
        prefetch_late; prefetch_useful } =
    let b = Buffer.create 128 in
    Enc.varint b instrs;
    Enc.varint b cycles;
    Enc.varint b fetch_cycles;
    Enc.varint b seq_cycles;
    Enc.varint b tc_cycles;
    Enc.varint b icache_accesses;
    Enc.varint b icache_misses;
    Enc.varint b icache_victim_hits;
    Enc.varint b tc_lookups;
    Enc.varint b tc_hits;
    Enc.varint b taken_branches;
    Enc.float b instrs_between_taken;
    Enc.varint b cond_branches;
    Enc.varint b mispredictions;
    Enc.varint b icache_evictions;
    Enc.varint b prefetch_issued;
    Enc.varint b prefetch_completed;
    Enc.varint b prefetch_late;
    Enc.varint b prefetch_useful;
    Buffer.contents b

  let decode payload =
    let d = Dec.make payload in
    let instrs = Dec.varint d in
    let cycles = Dec.varint d in
    let fetch_cycles = Dec.varint d in
    let seq_cycles = Dec.varint d in
    let tc_cycles = Dec.varint d in
    let icache_accesses = Dec.varint d in
    let icache_misses = Dec.varint d in
    let icache_victim_hits = Dec.varint d in
    let tc_lookups = Dec.varint d in
    let tc_hits = Dec.varint d in
    let taken_branches = Dec.varint d in
    let instrs_between_taken = Dec.float d in
    let cond_branches = Dec.varint d in
    let mispredictions = Dec.varint d in
    let icache_evictions = Dec.varint d in
    let prefetch_issued = Dec.varint d in
    let prefetch_completed = Dec.varint d in
    let prefetch_late = Dec.varint d in
    let prefetch_useful = Dec.varint d in
    Dec.finish d;
    {
      Engine.instrs;
      cycles;
      fetch_cycles;
      seq_cycles;
      tc_cycles;
      icache_accesses;
      icache_misses;
      icache_victim_hits;
      tc_lookups;
      tc_hits;
      taken_branches;
      instrs_between_taken;
      cond_branches;
      mispredictions;
      icache_evictions;
      prefetch_issued;
      prefetch_completed;
      prefetch_late;
      prefetch_useful;
    }

  let load t ~key = load_with t ~kind ~version ~decode key

  let save t ~key r = write t ~kind ~version key (encode r)

end

(* ------------------------------------------------------------------ *)
(* Content fingerprints. *)

module Fp = struct
  let program (p : Program.t) =
    let h = ref Fnv.empty in
    let add v = h := Fnv.int !h v in
    let adds s = h := Fnv.string (Fnv.int !h (String.length s)) s in
    add (Array.length p.Program.procs);
    Array.iter
      (fun (pr : Proc.t) ->
        add pr.Proc.pid;
        adds pr.Proc.name;
        adds (Proc.subsystem_name pr.Proc.subsystem);
        add pr.Proc.entry;
        add (Array.length pr.Proc.blocks);
        Array.iter add pr.Proc.blocks)
      p.Program.procs;
    add (Array.length p.Program.blocks);
    Array.iter
      (fun (b : Block.t) ->
        add b.Block.id;
        add b.Block.size;
        match b.Block.term with
        | Terminator.Fall x ->
            add 0;
            add x
        | Terminator.Jump x ->
            add 1;
            add x
        | Terminator.Cond { taken; fallthru } ->
            add 2;
            add taken;
            add fallthru
        | Terminator.Call { callee; next } ->
            add 3;
            add callee;
            add next
        | Terminator.Icall { callees; next } ->
            add 4;
            add (Array.length callees);
            Array.iter add callees;
            add next
        | Terminator.Ret -> add 5)
      p.Program.blocks;
    Fnv.to_hex !h

  let layout (l : Stc_layout.Layout.t) =
    let addr = l.Stc_layout.Layout.addr in
    Fnv.to_hex (Fnv.ints (Fnv.int Fnv.empty (Array.length addr)) addr)

  (* The algorithm identity AND its full parameter record: two registered
     algorithms given identical profiles — or one algorithm at two grid
     points — can never collide on a cached layout artifact. The
     patterns bind every field, so a new one does not compile until it
     is hashed. *)
  let layout_algo ~algo
      { Stc_layout.Algo.seq =
          { Stc_layout.Seqbuild.exec_threshold; branch_threshold };
        cache_bytes; cfa_bytes } =
    let h = Fnv.string (Fnv.int Fnv.empty (String.length algo)) algo in
    let h = Fnv.int h exec_threshold in
    let h = Fnv.int64 h (Int64.bits_of_float branch_threshold) in
    let h = Fnv.int h cache_bytes in
    let h = Fnv.int h cfa_bytes in
    Fnv.to_hex h

  let trace r =
    let h = Fnv.int64 Fnv.empty (Recorder.hash r) in
    let h =
      List.fold_left
        (fun h (name, pos) ->
          Fnv.int (Fnv.string (Fnv.int h (String.length name)) name) pos)
        h (Recorder.marks r)
    in
    Fnv.to_hex h

  (* The patterns bind every field, so a new one does not compile until
     it is hashed. *)
  let engine_config
      { Engine.Config.max_branches; line_bytes; miss_penalty; fdip } =
    let h =
      Fnv.empty
      |> Fun.flip Fnv.int max_branches
      |> Fun.flip Fnv.int line_bytes
      |> Fun.flip Fnv.int miss_penalty
    in
    (* folded only when present, so every pre-FDIP key is unchanged *)
    let h =
      match fdip with
      | None -> h
      | Some { Stc_fetch.Fdip.ftq_depth; mshrs; degree; latency } ->
        Fnv.int h 1
        |> Fun.flip Fnv.int ftq_depth
        |> Fun.flip Fnv.int mshrs
        |> Fun.flip Fnv.int degree
        |> Fun.flip Fnv.int latency
    in
    Fnv.to_hex h

  let int_array (a : int array) =
    Fnv.to_hex (Fnv.ints (Fnv.int Fnv.empty (Array.length a)) a)
end

(* ------------------------------------------------------------------ *)
(* Statistics and inspection. *)

type stats = {
  hits : int;
  misses : int;
  writes : int;
  corrupt : int;
  bytes_read : int;
  bytes_written : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    writes = t.writes;
    corrupt = t.corrupt_n;
    bytes_read = t.bytes_read;
    bytes_written = t.bytes_written;
  }

type entry = {
  e_path : string;
  e_kind : string;
  e_key : string;
  e_version : int;
  e_payload_bytes : int;
  e_ok : bool;
  e_reason : string option;
}

let inspect_file path =
  let e_key = Filename.remove_extension (Filename.basename path) in
  let broken reason =
    {
      e_path = path;
      e_kind = "?";
      e_key;
      e_version = -1;
      e_payload_bytes = 0;
      e_ok = false;
      e_reason = Some reason;
    }
  in
  match read_file path with
  | None -> broken "unreadable file"
  | Some contents -> (
      match parse_entry contents with
      | Error (`Damage reason) | Error (`Stale reason) -> broken reason
      | Ok (kind, version, payload) ->
          {
            e_path = path;
            e_kind = kind;
            e_key;
            e_version = version;
            e_payload_bytes = String.length payload;
            e_ok = true;
            e_reason = None;
          })

let payload_of_file path =
  match read_file path with
  | None -> None
  | Some contents -> (
      match parse_entry contents with
      | Error _ -> None
      | Ok (_kind, _version, payload) -> Some payload)

let scan dirname =
  let readdir d = match Sys.readdir d with a -> a | exception Sys_error _ -> [||] in
  let kinds =
    readdir dirname
    |> Array.to_list
    |> List.filter (fun k ->
           match Sys.is_directory (Filename.concat dirname k) with
           | b -> b
           | exception Sys_error _ -> false)
  in
  kinds
  |> List.concat_map (fun k ->
         let kd = Filename.concat dirname k in
         readdir kd
         |> Array.to_list
         |> List.filter (fun f -> Filename.check_suffix f ".bin")
         |> List.map (fun f -> Filename.concat kd f))
  |> List.sort String.compare
  |> List.map inspect_file
