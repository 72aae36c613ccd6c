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
  (* the victim slots in replacement order, a doubly linked list from
     [v_first] (replaced next) to [v_last] (written last); -1 ends it *)
  v_next : int array;
  v_prev : int array;
  mutable v_first : int;
  mutable v_last : int;
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
    (* empty slots are replaced highest index first *)
    v_next = Array.init victim_lines (fun i -> i - 1);
    v_prev =
      Array.init victim_lines (fun i ->
          if i = victim_lines - 1 then -1 else i + 1);
    v_first = victim_lines - 1;
    v_last = (if victim_lines = 0 then -1 else 0);
    clock = 0;
    evictions = 0;
  }

let line_bytes t = 1 lsl t.line_bits

let evictions t = t.evictions

(* Move victim slot [i] to the end of the replacement order: it was
   just written. *)
let victim_written t i =
  if i <> t.v_last then begin
    let next = Array.unsafe_get t.v_next i
    and prev = Array.unsafe_get t.v_prev i in
    (* [i] is not last, so [next] is a slot *)
    Array.unsafe_set t.v_prev next prev;
    if prev >= 0 then Array.unsafe_set t.v_next prev next
    else t.v_first <- next;
    Array.unsafe_set t.v_next t.v_last i;
    Array.unsafe_set t.v_prev i t.v_last;
    Array.unsafe_set t.v_next i (-1);
    t.v_last <- i
  end

(* Probe the victim buffer for [line]; on hit, replace that slot with
   [evicted] and return true. On miss, insert [evicted] over the
   replacement slot and return false. The replacement slot is the last
   empty one (highest index), else the one written longest ago: the
   order [v_first] keeps, so one scan, for [line], is all a probe
   reads. (A hit always writes a line back: [line] left a full set,
   and sets never empty, so [evicted] is valid and the empty slots stay
   first in the order.) *)
let victim_swap t line evicted =
  let n = Array.length t.v_tags in
  if n = 0 then false
  else begin
    let v_tags = t.v_tags in
    let i = ref 0 in
    while !i < n && Array.unsafe_get v_tags !i <> line do
      incr i
    done;
    if !i < n then begin
      Array.unsafe_set v_tags !i evicted;
      victim_written t !i;
      true
    end
    else begin
      if evicted <> -1 then begin
        let r = t.v_first in
        Array.unsafe_set v_tags r evicted;
        victim_written t r
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
    (* [base + w] is in range for every way [w < assoc] of the set *)
    let tags = t.tags and stamps = t.stamps in
    let way = ref 0 in
    for w = 1 to t.assoc - 1 do
      if
        Array.unsafe_get tags (base + w) = -1
        || (Array.unsafe_get tags (base + !way) <> -1
           && Array.unsafe_get stamps (base + w)
              < Array.unsafe_get stamps (base + !way))
      then way := w
    done;
    !way
  | Srrip | Trrip _ ->
    let tags = t.tags and stamps = t.stamps and rrpv = t.rrpv in
    let way = ref (-1) in
    for w = 0 to t.assoc - 1 do
      if Array.unsafe_get tags (base + w) = -1 then way := w
    done;
    if !way >= 0 then !way
    else begin
      let m = ref 0 in
      for w = 0 to t.assoc - 1 do
        let r = Array.unsafe_get rrpv (base + w) in
        if r > !m then m := r
      done;
      let boost = rrpv_max - !m in
      if boost > 0 then
        for w = 0 to t.assoc - 1 do
          Array.unsafe_set rrpv (base + w)
            (Array.unsafe_get rrpv (base + w) + boost)
        done;
      for w = 0 to t.assoc - 1 do
        if
          Array.unsafe_get rrpv (base + w) = rrpv_max
          && (!way < 0
             || Array.unsafe_get stamps (base + w)
                < Array.unsafe_get stamps (base + !way))
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

(* [way] comes from [choose_way], so [base + way] is in range *)
let install t base way line ~rrpv =
  let i = base + way in
  let evicted = Array.unsafe_get t.tags i in
  (match t.policy with
  | Lru -> ()
  | Srrip | Trrip _ ->
    if evicted <> -1 then t.evictions <- t.evictions + 1);
  Array.unsafe_set t.tags i line;
  Array.unsafe_set t.stamps i t.clock;
  Array.unsafe_set t.rrpv i rrpv;
  Array.unsafe_set t.pref i false;
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
  (* the set's ways are [base, base + assoc), all in range *)
  let tags = t.tags in
  let hit_way = ref (-1) in
  for w = 0 to t.assoc - 1 do
    if Array.unsafe_get tags (base + w) = line then hit_way := w
  done;
  if !hit_way >= 0 then begin
    let i = base + !hit_way in
    (match t.policy with
    | Lru -> Array.unsafe_set t.stamps i t.clock
    | Srrip | Trrip _ -> Array.unsafe_set t.rrpv i 0);
    if Array.unsafe_get t.pref i then begin
      Array.unsafe_set t.pref i false;
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

(* After demand accesses to two consecutive lines, which sit in two
   different sets when there are at least two, each line holds its
   set's newest LRU stamp. A demand re-access of either, before any
   other access or prefetch fill, is then a hit that only moves that
   stamp and the clock forward: every stamp order, the victim buffer and
   the prefetch marks stay as they are, so every later outcome is the
   same whether or not it happens. RRIP hits rewrite an RRPV, and in a
   one-set cache the second line can evict the first. *)
let retouch_safe t =
  t.set_mask >= 1 && match t.policy with Lru -> true | Srrip | Trrip _ -> false

let probe_direct t addr =
  let line = addr lsr t.line_bits in
  let set = line land t.set_mask in
  if Array.unsafe_get t.tags set = line then true
  else begin
    Array.unsafe_set t.tags set line;
    false
  end
