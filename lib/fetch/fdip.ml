module Icache = Stc_cachesim.Icache

(* Fetch-directed instruction prefetching (Asheim et al.): a decoupled
   frontend runs ahead of the fetch engine filling a bounded fetch
   target queue (FTQ), and a prefetch engine walks the FTQ issuing line
   prefetches into L1i under an in-flight (MSHR) bound with a
   configurable prefetch-to-use latency.

   Under the paper's perfect-prediction fetch model the run-ahead path
   is the trace itself, so the FTQ holds the next [ftq_depth] fetch
   targets of the replay. Each simulated fetch cycle drives three
   steps, in this order, identically in the engine bank and the
   oracle:

     1. [begin_cycle]  — prefetches whose latency elapsed land in L1i;
     2. [demand]       — the cycle's demand line probes (sequential
                         cycles only), each returning a cycle charge;
     3. [advance]      — the FTQ walk issues new prefetches for the
                         blocks starting at the cycle-start position.

   FDIP never alters SEQ.3 cycle boundaries — it only changes i-cache
   contents and penalty charges — which is what lets the fused bank
   share one walk across FDIP-on and FDIP-off members of a cohort.

   The queue persists between cycles. A line stops being resident or in
   flight only when an install into this frontend's own i-cache evicts
   it, and during a replay every such install comes from here: a demand
   miss, a demand victim hit (the swap reinstalls the line), a landing,
   or a demand intercept of an in-flight line. Each bumps [epoch].
   [advance] keeps a verified prefix — every target in
   [cycle start, v_upto) had both lines present at [v_epoch] — so while
   the epoch holds it resumes at [v_upto] and examines only the blocks
   that just entered the queue. Issuing only adds presence, and the
   walk stops at the first line it can neither find nor issue (after
   which no issue is possible this cycle), so resuming is exact. *)

type config = { ftq_depth : int; mshrs : int; degree : int; latency : int }

let config ?(ftq_depth = 8) ?(mshrs = 8) ?(degree = 2) ?(latency = 3) () =
  if ftq_depth < 1 then invalid_arg "Fdip.config: ftq_depth must be >= 1";
  if mshrs < 1 then invalid_arg "Fdip.config: mshrs must be >= 1";
  if degree < 1 then invalid_arg "Fdip.config: degree must be >= 1";
  if latency < 0 then invalid_arg "Fdip.config: latency must be >= 0";
  { ftq_depth; mshrs; degree; latency }

let default = config ()

(* no line number: line numbers are >= 0, so neither [none] nor
   [none - 1] matches one *)
let none = -2

type t = {
  cfg : config;
  ic : Icache.t;
  line_bits : int;
  word_shift : int; (* packed word -> line number of its block *)
  (* in-flight prefetches in issue order: line-aligned byte address and
     the cycle the fill becomes visible; [n] live entries *)
  lines : int array;
  ready : int array;
  mutable n : int;
  mutable budget : int; (* issues left in the current [advance] *)
  mutable epoch : int; (* installs into [ic] so far *)
  mutable v_upto : int; (* global block index ending the verified prefix *)
  mutable v_epoch : int;
  mutable v_last : int; (* second line number of the last verified target *)
  mutable issued : int;
  mutable completed : int;
  mutable late : int;
  mutable useful : int;
  mutable d_miss : int;
  mutable d_vhit : int;
}

let create cfg ic =
  let line_bits = Stc_util.Bits.log2_exact (Icache.line_bytes ic) in
  {
    cfg;
    ic;
    line_bits;
    word_shift = Packed.addr_shift + line_bits;
    lines = Array.make cfg.mshrs 0;
    ready = Array.make cfg.mshrs 0;
    n = 0;
    budget = 0;
    epoch = 0;
    v_upto = 0;
    v_epoch = -1;
    v_last = none;
    issued = 0;
    completed = 0;
    late = 0;
    useful = 0;
    d_miss = 0;
    d_vhit = 0;
  }

let issued t = t.issued

let completed t = t.completed

let late t = t.late

let useful t = t.useful

let demand_misses t = t.d_miss

let demand_victim_hits t = t.d_vhit

let in_flight t = t.n

(* shift-compact so the remaining entries keep issue order — the oracle
   mirrors this with an ordered association list *)
let remove t i =
  for j = i to t.n - 2 do
    t.lines.(j) <- t.lines.(j + 1);
    t.ready.(j) <- t.ready.(j + 1)
  done;
  t.n <- t.n - 1

(* a line is in flight at most once: issue skips in-flight lines *)
let find_inflight t a =
  let i = ref 0 in
  while !i < t.n && Array.unsafe_get t.lines !i <> a do
    incr i
  done;
  if !i < t.n then !i else -1

let begin_cycle t ~now =
  let i = ref 0 in
  while !i < t.n do
    if t.ready.(!i) <= now then begin
      Icache.fill_prefetch t.ic t.lines.(!i);
      t.epoch <- t.epoch + 1;
      t.completed <- t.completed + 1;
      remove t !i
    end
    else incr i
  done

let demand t ~now ~miss_penalty a =
  let k = find_inflight t a in
  if k >= 0 then begin
    (* in flight: the MSHR intercepts the demand; the fill lands now
       and the cycle is charged only the remaining latency (capped at
       the full miss penalty). A late prefetch is not a useful one, and
       the demand counts as a miss. *)
    let remain = t.ready.(k) - now in
    remove t k;
    Icache.fill_prefetch t.ic a;
    t.epoch <- t.epoch + 1;
    t.completed <- t.completed + 1;
    t.late <- t.late + 1;
    t.d_miss <- t.d_miss + 1;
    ignore (Icache.access t.ic a);
    if remain <= 0 then 0
    else if remain > miss_penalty then miss_penalty
    else remain
  end
  else
    match Icache.access t.ic a with
    | Icache.Hit -> 0
    | Icache.Prefetch_hit ->
      t.useful <- t.useful + 1;
      0
    | Icache.Victim_hit ->
      t.epoch <- t.epoch + 1;
      t.d_vhit <- t.d_vhit + 1;
      0
    | Icache.Miss ->
      t.epoch <- t.epoch + 1;
      t.d_miss <- t.d_miss + 1;
      miss_penalty

(* Make line number [l] present: [true] if it is resident or in flight,
   or was just issued within the cycle's budget and the MSHR bound. *)
let ensure t ~now l =
  let a = l lsl t.line_bits in
  if Icache.mem t.ic a || find_inflight t a >= 0 then true
  else if t.budget > 0 && t.n < t.cfg.mshrs then begin
    t.lines.(t.n) <- a;
    t.ready.(t.n) <- now + t.cfg.latency;
    t.n <- t.n + 1;
    t.issued <- t.issued + 1;
    t.budget <- t.budget - 1;
    true
  end
  else false

let advance t ~now words ~len ~idx ~gidx =
  let stop =
    if idx + t.cfg.ftq_depth < len then idx + t.cfg.ftq_depth else len
  in
  let live = t.v_epoch = t.epoch in
  (* resume after the verified prefix while no install intervened *)
  let k =
    ref (if live && t.v_upto > gidx then idx + (t.v_upto - gidx) else idx)
  in
  (* the pair [last - 1, last] is present; a neighbouring target's pair
     usually overlaps it *)
  let last = ref (if live then t.v_last else none) in
  let blocked = ref false in
  t.budget <- t.cfg.degree;
  while (not !blocked) && !k < stop do
    (* each fetch target covers the SEQ.3 line pair of its block *)
    let l0 = Array.unsafe_get words !k lsr t.word_shift in
    if
      l0 = !last - 1
      || ((l0 = !last || ensure t ~now l0) && ensure t ~now (l0 + 1))
    then begin
      last := l0 + 1;
      incr k
    end
    else blocked := true
  done;
  t.v_upto <- gidx + (!k - idx);
  t.v_epoch <- t.epoch;
  t.v_last <- !last
