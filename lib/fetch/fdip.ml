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
                         cycles only), each returning its outcome and a
                         cycle charge;
     3. [advance]      — the FTQ walk issues new prefetches for the
                         blocks starting at the cycle-start position.

   FDIP never alters SEQ.3 cycle boundaries — it only changes i-cache
   contents and penalty charges — which is what lets the fused bank
   share one walk across FDIP-on and FDIP-off members of a cohort. *)

type config = { ftq_depth : int; mshrs : int; degree : int; latency : int }

let config ?(ftq_depth = 8) ?(mshrs = 8) ?(degree = 2) ?(latency = 3) () =
  if ftq_depth < 1 then invalid_arg "Fdip.config: ftq_depth must be >= 1";
  if mshrs < 1 then invalid_arg "Fdip.config: mshrs must be >= 1";
  if degree < 1 then invalid_arg "Fdip.config: degree must be >= 1";
  if latency < 0 then invalid_arg "Fdip.config: latency must be >= 0";
  { ftq_depth; mshrs; degree; latency }

let default = config ()

type t = {
  cfg : config;
  ic : Icache.t;
  line : int;
  (* in-flight prefetches in issue order: line-aligned byte address and
     the cycle the fill becomes visible; [n] live entries *)
  lines : int array;
  ready : int array;
  mutable n : int;
  mutable issued : int;
  mutable completed : int;
  mutable late : int;
  mutable useful : int;
  mutable occ_hwm : int;
  mutable inflight_hwm : int;
}

let create cfg ic =
  {
    cfg;
    ic;
    line = Icache.line_bytes ic;
    lines = Array.make cfg.mshrs 0;
    ready = Array.make cfg.mshrs 0;
    n = 0;
    issued = 0;
    completed = 0;
    late = 0;
    useful = 0;
    occ_hwm = 0;
    inflight_hwm = 0;
  }

let issued t = t.issued

let completed t = t.completed

let late t = t.late

let useful t = t.useful

let in_flight t = t.n

let occupancy_hwm t = t.occ_hwm

let inflight_hwm t = t.inflight_hwm

(* shift-compact so the remaining entries keep issue order — the oracle
   mirrors this with an ordered association list *)
let remove t i =
  for j = i to t.n - 2 do
    t.lines.(j) <- t.lines.(j + 1);
    t.ready.(j) <- t.ready.(j + 1)
  done;
  t.n <- t.n - 1

let find_inflight t a =
  let r = ref (-1) in
  for i = 0 to t.n - 1 do
    if t.lines.(i) = a then r := i
  done;
  !r

let begin_cycle t ~now =
  let i = ref 0 in
  while !i < t.n do
    if t.ready.(!i) <= now then begin
      Icache.fill_prefetch t.ic t.lines.(!i);
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
       the full miss penalty). A late prefetch is not a useful one. *)
    let remain = t.ready.(k) - now in
    remove t k;
    Icache.fill_prefetch t.ic a;
    t.completed <- t.completed + 1;
    t.late <- t.late + 1;
    ignore (Icache.access_demand t.ic a);
    let charge =
      if remain <= 0 then 0
      else if remain > miss_penalty then miss_penalty
      else remain
    in
    (Icache.Miss, charge)
  end
  else
    match Icache.access_demand t.ic a with
    | Icache.Hit, was_pref ->
      if was_pref then t.useful <- t.useful + 1;
      (Icache.Hit, 0)
    | Icache.Victim_hit, _ -> (Icache.Victim_hit, 0)
    | Icache.Miss, _ -> (Icache.Miss, miss_penalty)

let issue t ~now budget a =
  if
    !budget > 0
    && t.n < t.cfg.mshrs
    && (not (Icache.mem t.ic a))
    && find_inflight t a < 0
  then begin
    t.lines.(t.n) <- a;
    t.ready.(t.n) <- now + t.cfg.latency;
    t.n <- t.n + 1;
    t.issued <- t.issued + 1;
    decr budget;
    if t.n > t.inflight_hwm then t.inflight_hwm <- t.n
  end

let advance t ~now ~nth =
  let budget = ref t.cfg.degree in
  let occ = ref 0 in
  let k = ref 0 in
  let stop = ref false in
  while (not !stop) && !k < t.cfg.ftq_depth do
    match nth !k with
    | None -> stop := true
    | Some addr ->
      incr occ;
      (* each fetch target covers the SEQ.3 line pair of its block *)
      let l0 = addr / t.line * t.line in
      issue t ~now budget l0;
      issue t ~now budget (l0 + t.line);
      incr k
  done;
  if !occ > t.occ_hwm then t.occ_hwm <- !occ
