(** A versioned, content-addressed on-disk cache for pipeline artifacts.

    The paper's methodology is two-phase — record a workload trace once,
    then replay it against many layouts and cache geometries — so almost
    everything the pipeline computes is a pure function of a describable
    input set. This store persists those computations between runs:
    recorded traces ({!Chunked}), layouts ({!Stc_layout.Layout}) and
    per-simulation engine results ({!Stc_fetch.Engine.result}).

    {2 Addressing}

    An entry lives at [dir/<kind>/<key>.bin]. The key is a 64-bit
    {!Stc_util.Fnv} hash ({!Key.of_parts}) of everything that determines
    the artifact — for content-derived artifacts the {!Fp} fingerprints
    of the inputs (program skeleton, layout addresses, trace ids), for
    recorded traces the workload spec and seeds. Code changes that alter
    an artifact's {e meaning} without changing its inputs are handled by
    the per-kind format version: bump it and old entries fall out as
    version mismatches.

    {2 Format and failure model}

    Each file is [magic "STCA" · container version · kind · format
    version · payload length · payload · CRC-32 of the payload], written
    to a temp file and renamed into place (concurrent writers of the
    same key both produce valid files; last rename wins). Reads never
    crash the run: a missing entry is a plain miss; a version mismatch,
    bad magic, truncation or checksum failure is a miss plus a
    {!warning} (and, for damage, a [corrupt] count); the caller then
    recomputes and saves the entry again. Only genuinely anomalous
    states warn — a cold cache is silent, so a cold and a warm run
    report the same warnings.

    {2 Observability}

    A handle writes to no registry: it keeps its own {!stats} and
    {!warnings}, and whoever opened it publishes them
    ({!Stc_core.Pipeline.publish_store} writes the [store.*] counters
    and [store.warning] events). Those counters are the one intentional
    difference between cold and warm exports; [metrics_diff --ignore
    store.] compares everything else. *)

exception Corrupt of string
(** Raised by decoders on malformed payload bytes; every [load] catches
    it and reports a miss, so the caller recomputes. Client code only
    sees it if it calls a decoder directly. *)

(** Store keys: a 64-bit FNV-1a hash rendered as 16 hex digits. *)
module Key : sig
  type t

  val of_parts : string list -> t
  (** Hash the parts with their lengths, so part boundaries matter:
      [of_parts ["ab"; "c"]] differs from [of_parts ["a"; "bc"]]. *)

  val hex : t -> string

  val of_hex : string -> t
  (** Reconstruct a key from its {!hex} rendering (as scanned from an
      entry file name) — keys {e are} their hex form, so this is total. *)
end

type t
(** An open store handle: a directory, the handle's own counts
    ({!stats}) and its {!warnings}. A handle is not thread-safe, but
    handles are cheap to open: the grid runner opens one per cell. *)

val open_ : ?trace:Stc_obs.Trace.t -> string -> t
(** Create the directory (and parents) if needed. A directory that
    cannot be created (say, under a regular file) does not raise: the
    handle is a broken cache whose lookups miss and whose writes warn,
    as {!write} describes. With [~trace] every lookup and write emits a
    timeline slice — [store.hit]/[store.miss]/[store.write] — carrying
    the payload size as its [bytes] argument; these slices are the
    store's only timing ([tools/trace_report] splits them per op, with
    p50 and p99 durations). *)

val of_ctx : Stc_obs.Run.ctx -> t option
(** [Some (open_ ?trace:ctx.trace dir)] when [ctx.store] is [Some dir]. *)

type warning = {
  artifact : string;  (** The entry's kind, e.g. ["result"]. *)
  key : string;  (** {!Key.hex} of the entry's key. *)
  reason : string;
}

val warnings : t -> warning list
(** Every warning this handle raised, oldest first: a stale or damaged
    entry read, or a failed write. *)

(** {2 Raw container access}

    Typed artifacts below are the normal API; these two are the
    container layer itself (and the test surface for corruption
    handling). *)

val read : t -> kind:string -> version:int -> Key.t -> string option
(** The payload, if a well-formed entry of that kind and version exists.
    Counts a hit or a miss; warns on damage or version mismatch as
    described above. *)

val write : t -> kind:string -> version:int -> Key.t -> string -> unit
(** Atomic temp-file-then-rename write. A filesystem error (permissions,
    disk full) warns and returns — the computation's result is still in
    hand, so a broken cache never fails a run. *)

(** {2 Typed artifacts}

    Each artifact module fixes a [kind] string and a format version,
    and offers [load] (consult). [Chunked] and [Result] offer [save]
    (record); [Layout] offers [cached] instead (consult, else compute
    and record — on [None] stores, just compute). [encode] and [decode]
    are the bare codecs:
    [decode (encode x)] reconstructs [x] and is property-tested;
    [decode] raises {!Corrupt} on malformed bytes. *)

(** Recorded traces, the store's one trace format: one manifest entry
    ([trace-man]) plus one CRC-checked container per segment
    ([trace-seg]).

    [save] writes segments first and the manifest last (a crash mid-save
    is a plain miss), skipping segments that already read back intact —
    so re-saving over a damaged entry rewrites only the broken segments.
    [load] validates every segment (read, CRC, content hash against the
    manifest) and returns [None] on any damage. *)
module Chunked : sig
  val manifest_kind : string

  val segment_kind : string

  val version : int

  type manifest = {
    m_total_blocks : int;
    m_segment_blocks : int;  (** Segment size the entry was saved with. *)
    m_seg_lens : int array;
    m_marks : (string * int) list;
    m_ids_hash : int64;  (** {!Stc_trace.Recorder.hash} of the ids. *)
  }

  val seg_key : Key.t -> int -> Key.t
  (** Key of the [i]th segment of the chunked entry at [key]. *)

  val decode_manifest : string -> manifest
  (** Raises {!Corrupt} on malformed bytes ([tools/store_inspect]'s way
      into manifest entries it finds by scanning). *)

  val decode_segment : base:int -> string -> Stc_trace.Segment.t
  (** Raises {!Corrupt} on malformed bytes. *)

  val save : ?segment_blocks:int -> t -> key:Key.t -> Stc_trace.Recorder.t -> unit

  val load_manifest : t -> key:Key.t -> manifest option

  val load : t -> key:Key.t -> Stc_trace.Recorder.t option
  (** The whole trace; [None] if the manifest is absent or any segment
      is damaged or drifted. Each segment is read once: the validated
      segments become the recorder's chunks
      ({!Stc_trace.Recorder.of_segments}). *)
end

module Layout : sig
  val encode : Stc_layout.Layout.t -> string

  val decode : string -> Stc_layout.Layout.t

  val load : t -> blocks:int -> key:Key.t -> Stc_layout.Layout.t option
  (** An entry whose address array does not hold [blocks] addresses
      (the program's block count) is damage: a counted miss with a
      warning, as a bad CRC is. *)

  val cached :
    t option ->
    blocks:int ->
    key:Key.t ->
    (unit -> Stc_layout.Layout.t) ->
    Stc_layout.Layout.t
end

module Result : sig
  val encode : Stc_fetch.Engine.result -> string

  val decode : string -> Stc_fetch.Engine.result

  val load : t -> key:Key.t -> Stc_fetch.Engine.result option

  val save : t -> key:Key.t -> Stc_fetch.Engine.result -> unit
end

(** {2 Content fingerprints}

    Hex strings for {!Key.of_parts}, hashing exactly the content a
    downstream computation reads — so a key built from them is valid no
    matter which code path produced the inputs (the recorded pipeline, an
    inlined program, an OLTP trace...). *)
module Fp : sig
  val program : Stc_cfg.Program.t -> string
  (** Full static structure: per procedure the name, subsystem and block
      span; per block the size and terminator (with successors). *)

  val layout : Stc_layout.Layout.t -> string
  (** The address array only — two layouts that place every block
      identically share downstream artifacts regardless of name. *)

  val layout_algo : algo:string -> Stc_layout.Algo.params -> string
  (** A layout-construction key part: the algorithm identity (its
      registry slug) plus every field of its parameter record, so two
      algorithms fed the same profile — or one algorithm at two grid
      points — can never collide on a cached layout artifact. *)

  val trace : Stc_trace.Recorder.t -> string
  (** The recorded ids ({!Stc_trace.Recorder.hash}) plus the marks. *)

  val engine_config : Stc_fetch.Engine.config -> string
  (** Every engine parameter, the FDIP block included when present; a
      [fdip = None] config hashes exactly as it did before the field
      existed, so pre-FDIP keys are stable. *)

  val int_array : int array -> string
  (** Length-prefixed FNV of an int array — e.g. a TRRIP temperature
      table entering a cell key. *)
end

(** {2 Statistics and inspection} *)

type stats = {
  hits : int;
  misses : int;
  writes : int;
  corrupt : int;
  bytes_read : int;
  bytes_written : int;
}

val stats : t -> stats
(** This handle's totals since {!open_}. *)

type entry = {
  e_path : string;
  e_kind : string;  (** "?" when the header is unreadable. *)
  e_key : string;  (** From the file name. *)
  e_version : int;  (** -1 when the header is unreadable. *)
  e_payload_bytes : int;
  e_ok : bool;
  e_reason : string option;  (** Why [e_ok] is false. *)
}

val payload_of_file : string -> string option
(** The payload of one well-formed entry file (any kind and version),
    without a handle and without counting; [None] on damage.
    [tools/store_inspect] pairs this with {!Chunked.decode_manifest} to
    describe the chunked entries it finds by scanning. *)

val inspect_file : string -> entry
(** Parse one entry file and verify its checksum, without a handle and
    without counting. Never raises. *)

val scan : string -> entry list
(** Every [*.bin] under the store directory's kind subdirectories, in
    sorted order ([tools/store_inspect] is a thin printer over this).
    An unreadable or missing directory yields []. *)
