module Bits = Stc_util.Bits

(* Replacement policies. [Lru] is the paper's machine and keeps the exact
   historical code path; the RRIP family (Srrip, and Trrip seeded with a
   static per-line temperature) is the modern-replacement extension.

   RRIP state is a 2-bit re-reference prediction value (RRPV) per way:
   0 = re-reference expected soonest, 3 = longest. A hit resets the
   way's RRPV to 0; a miss victimizes a way at RRPV 3 (aging every way
   uniformly until one reaches 3). Ties among RRPV-3 ways are broken by
   installation age — the oldest-installed way loses — so the stamps
   array doubles as install order under RRIP (hits do not touch it),
   and the list-based oracle in Stc_check can reproduce the choice
   without mirroring way indices. *)
type policy = Lru | Srrip | Trrip of int array

let rrpv_max = 3

type t = {
  assoc : int;
  line_bits : int;
  set_mask : int;
  policy : policy;
  tags : int array; (* set * assoc + way -> line number, -1 invalid *)
  stamps : int array; (* LRU recency / RRIP install stamps, parallel *)
  rrpv : int array; (* RRIP re-reference values, parallel to tags *)
  pref : bool array; (* prefetched-and-not-yet-demanded marks *)
  v_tags : int array; (* victim buffer, -1 invalid *)
  v_stamps : int array;
  mutable clock : int;
  mutable evictions : int; (* valid lines replaced, RRIP policies only *)
}

let create ?(assoc = 1) ?(line_bytes = 32) ?(victim_lines = 0) ?(policy = Lru)
    ~size_bytes () =
  if assoc < 1 then invalid_arg "Icache.create: assoc must be >= 1";
  if victim_lines < 0 then
    invalid_arg "Icache.create: victim_lines must be >= 0";
  if not (Bits.is_pow2 line_bytes) then
    invalid_arg "Icache.create: line_bytes must be a power of two";
  if size_bytes <= 0 || size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Icache.create: size must be a multiple of assoc * line";
  let n_sets = size_bytes / (assoc * line_bytes) in
  if not (Bits.is_pow2 n_sets) then
    invalid_arg "Icache.create: set count must be a power of two";
  (match policy with
  | Trrip temps ->
    Array.iter
      (fun t ->
        if t < 0 then invalid_arg "Icache.create: negative temperature")
      temps
  | Lru | Srrip -> ());
  {
    assoc;
    line_bits = Bits.log2_exact line_bytes;
    set_mask = n_sets - 1;
    policy;
    tags = Array.make (n_sets * assoc) (-1);
    stamps = Array.make (n_sets * assoc) 0;
    rrpv = Array.make (n_sets * assoc) 0;
    pref = Array.make (n_sets * assoc) false;
    v_tags = Array.make victim_lines (-1);
    v_stamps = Array.make victim_lines 0;
    clock = 0;
    evictions = 0;
  }

let line_bytes t = 1 lsl t.line_bits

let evictions t = t.evictions

(* Probe the victim buffer for [line]; on hit, replace that slot with
   [evicted] and return true. On miss, insert [evicted] over the LRU slot
   and return false. *)
let victim_swap t line evicted =
  let n = Array.length t.v_tags in
  if n = 0 then false
  else begin
    let found = ref (-1) in
    for i = 0 to n - 1 do
      if t.v_tags.(i) = line then found := i
    done;
    if !found >= 0 then begin
      t.v_tags.(!found) <- evicted;
      t.v_stamps.(!found) <- t.clock;
      true
    end
    else begin
      let lru = ref 0 in
      for i = 1 to n - 1 do
        if
          t.v_tags.(i) = -1
          || (t.v_tags.(!lru) <> -1 && t.v_stamps.(i) < t.v_stamps.(!lru))
        then lru := i
      done;
      if evicted <> -1 then begin
        t.v_tags.(!lru) <- evicted;
        t.v_stamps.(!lru) <- t.clock
      end;
      false
    end
  end

type outcome = Hit | Prefetch_hit | Victim_hit | Miss

(* Victim-way selection for a full (or partially invalid) set. LRU keeps
   the historical single loop (invalid slot, else minimum stamp); RRIP
   first reuses an invalid way, else ages every way until the maximum
   RRPV reaches 3 and evicts the oldest-installed way standing there. *)
let choose_way t base =
  match t.policy with
  | Lru ->
    let way = ref 0 in
    for w = 1 to t.assoc - 1 do
      if
        t.tags.(base + w) = -1
        || (t.tags.(base + !way) <> -1
            && t.stamps.(base + w) < t.stamps.(base + !way))
      then way := w
    done;
    !way
  | Srrip | Trrip _ ->
    let way = ref (-1) in
    for w = 0 to t.assoc - 1 do
      if t.tags.(base + w) = -1 then way := w
    done;
    if !way >= 0 then !way
    else begin
      let m = ref 0 in
      for w = 0 to t.assoc - 1 do
        if t.rrpv.(base + w) > !m then m := t.rrpv.(base + w)
      done;
      let boost = rrpv_max - !m in
      if boost > 0 then
        for w = 0 to t.assoc - 1 do
          t.rrpv.(base + w) <- t.rrpv.(base + w) + boost
        done;
      for w = 0 to t.assoc - 1 do
        if
          t.rrpv.(base + w) = rrpv_max
          && (!way < 0 || t.stamps.(base + w) < t.stamps.(base + !way))
        then way := w
      done;
      !way
    end

(* RRPV of a freshly demand-installed line: SRRIP predicts a long
   re-reference interval for everything; TRRIP trusts the static
   temperature hint (0 hot -> immediate, 1 warm -> long, colder ->
   distant, as does any line past the end of the temperature table). *)
let insert_rrpv t line =
  match t.policy with
  | Lru -> 0
  | Srrip -> 2
  | Trrip temps ->
    let temp = if line < Array.length temps then temps.(line) else 2 in
    if temp <= 0 then 0 else if temp = 1 then 2 else rrpv_max

let install t base way line ~rrpv =
  let evicted = t.tags.(base + way) in
  (match t.policy with
  | Lru -> ()
  | Srrip | Trrip _ ->
    if evicted <> -1 then t.evictions <- t.evictions + 1);
  t.tags.(base + way) <- line;
  t.stamps.(base + way) <- t.clock;
  t.rrpv.(base + way) <- rrpv;
  t.pref.(base + way) <- false;
  evicted

(* The one demand access. A hit refreshes the way's replacement state
   and consumes its prefetch mark, reporting [Prefetch_hit] when there
   was one; a miss installs the line over the policy's victim way and
   passes the evicted line through the victim buffer. *)
let access t addr =
  t.clock <- t.clock + 1;
  let line = addr lsr t.line_bits in
  let set = line land t.set_mask in
  let base = set * t.assoc in
  let hit_way = ref (-1) in
  for w = 0 to t.assoc - 1 do
    if t.tags.(base + w) = line then hit_way := w
  done;
  if !hit_way >= 0 then begin
    let i = base + !hit_way in
    (match t.policy with
    | Lru -> t.stamps.(i) <- t.clock
    | Srrip | Trrip _ -> t.rrpv.(i) <- 0);
    if t.pref.(i) then begin
      t.pref.(i) <- false;
      Prefetch_hit
    end
    else Hit
  end
  else begin
    let way = choose_way t base in
    let evicted = install t base way line ~rrpv:(insert_rrpv t line) in
    if victim_swap t line evicted then Victim_hit else Miss
  end

let mem t addr =
  let line = addr lsr t.line_bits in
  let set = line land t.set_mask in
  let base = set * t.assoc in
  let found = ref false in
  for w = 0 to t.assoc - 1 do
    if t.tags.(base + w) = line then found := true
  done;
  !found

(* Install a prefetched line: a no-op if already resident, else a normal
   replacement-policy install marked as prefetched, with a distant RRIP
   insertion (3 — a wrong prefetch should be the first line out). The
   evicted line passes through the victim buffer exactly as on the
   demand path. *)
let fill_prefetch t addr =
  t.clock <- t.clock + 1;
  let line = addr lsr t.line_bits in
  let set = line land t.set_mask in
  let base = set * t.assoc in
  let resident = ref false in
  for w = 0 to t.assoc - 1 do
    if t.tags.(base + w) = line then resident := true
  done;
  if not !resident then begin
    let way = choose_way t base in
    let rrpv = match t.policy with Lru -> 0 | Srrip | Trrip _ -> rrpv_max in
    let evicted = install t base way line ~rrpv in
    t.pref.(base + way) <- true;
    ignore (victim_swap t line evicted)
  end

(* A direct-mapped LRU cache without a victim buffer has one way per set
   and no replacement, victim or eviction-counting decision to make:
   neither [stamps] nor [clock] can influence any future outcome, so a
   probe that skips both is observationally identical to [access] — same
   hit/miss sequence, same final tag contents. The fused replay bank
   ({!Stc_fetch.Engine.Bank}) probes many caches per fetch cycle and uses
   this to keep the common Table 3 configuration cheap. Non-LRU policies
   are excluded: they count evictions, which this fast path does not. *)
let plain_direct t =
  t.assoc = 1
  && Array.length t.v_tags = 0
  && match t.policy with Lru -> true | Srrip | Trrip _ -> false

let probe_direct t addr =
  let line = addr lsr t.line_bits in
  let set = line land t.set_mask in
  if Array.unsafe_get t.tags set = line then true
  else begin
    Array.unsafe_set t.tags set line;
    false
  end
