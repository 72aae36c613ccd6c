module Icache = Stc_cachesim.Icache

module Config = struct
  type t = {
    max_branches : int;
    line_bytes : int;
    miss_penalty : int;
    fdip : Fdip.config option;
  }

  let default =
    { max_branches = 3; line_bytes = 32; miss_penalty = 5; fdip = None }

  let make ?(max_branches = 3) ?(line_bytes = 32) ?(miss_penalty = 5) ?fdip ()
      =
    (* a line must hold a whole instruction, or a cycle's two-line
       window fetches nothing and the walk never advances *)
    if
      not
        (Stc_util.Bits.is_pow2 line_bytes
        && line_bytes >= Stc_cfg.Block.instr_bytes)
    then
      invalid_arg
        (Printf.sprintf
           "Engine.Config.make: line_bytes must be a power of two >= %d"
           Stc_cfg.Block.instr_bytes);
    if max_branches < 1 then
      invalid_arg "Engine.Config.make: max_branches must be >= 1";
    if miss_penalty < 0 then
      invalid_arg "Engine.Config.make: miss_penalty must be >= 0";
    { max_branches; line_bytes; miss_penalty; fdip }
end

type config = Config.t = {
  max_branches : int;
  line_bytes : int;
  miss_penalty : int;
  fdip : Fdip.config option;
}

type prediction = { pred : Predictor.t; redirect_penalty : int }

type result = {
  instrs : int;
  cycles : int;
  fetch_cycles : int;
  seq_cycles : int;
  tc_cycles : int;
  icache_accesses : int;
  icache_misses : int;
  icache_victim_hits : int;
  tc_lookups : int;
  tc_hits : int;
  taken_branches : int;
  instrs_between_taken : float;
  cond_branches : int;
  mispredictions : int;
  icache_evictions : int;
  prefetch_issued : int;
  prefetch_completed : int;
  prefetch_late : int;
  prefetch_useful : int;
}

let bandwidth r =
  if r.cycles = 0 then 0.0 else float_of_int r.instrs /. float_of_int r.cycles

let miss_rate_pct r =
  if r.instrs = 0 then 0.0
  else 100.0 *. float_of_int r.icache_misses /. float_of_int r.instrs

(* Binds every field, so a new one does not compile until it is listed. *)
let result_fields
    { instrs; cycles; fetch_cycles; seq_cycles; tc_cycles; icache_accesses;
      icache_misses; icache_victim_hits; tc_lookups; tc_hits; taken_branches;
      instrs_between_taken; cond_branches; mispredictions; icache_evictions;
      prefetch_issued; prefetch_completed; prefetch_late; prefetch_useful } =
  [
    ("instrs", float_of_int instrs);
    ("cycles", float_of_int cycles);
    ("fetch_cycles", float_of_int fetch_cycles);
    ("seq_cycles", float_of_int seq_cycles);
    ("tc_cycles", float_of_int tc_cycles);
    ("icache_accesses", float_of_int icache_accesses);
    ("icache_misses", float_of_int icache_misses);
    ("icache_victim_hits", float_of_int icache_victim_hits);
    ("tc_lookups", float_of_int tc_lookups);
    ("tc_hits", float_of_int tc_hits);
    ("taken_branches", float_of_int taken_branches);
    ("instrs_between_taken", instrs_between_taken);
    ("cond_branches", float_of_int cond_branches);
    ("mispredictions", float_of_int mispredictions);
    ("icache_evictions", float_of_int icache_evictions);
    ("prefetch_issued", float_of_int prefetch_issued);
    ("prefetch_completed", float_of_int prefetch_completed);
    ("prefetch_late", float_of_int prefetch_late);
    ("prefetch_useful", float_of_int prefetch_useful);
  ]

(* Packed-word decoders over {!Packed}'s field constants. They live here
   rather than in Packed so that the walk below inlines them: a call into
   another module stays out of line when modules compile separately. *)
let w_addr w = w lsr Packed.addr_shift

let w_size w = (w lsr Packed.size_shift) land Packed.size_mask

let w_taken w = w land Packed.taken_bit <> 0

let w_branch w = w land Packed.branch_bit <> 0

let w_cond w = w land Packed.cond_bit <> 0

(* The walk divides by shifting: [instr_bytes] and every line size are
   powers of two, and a constant of another module is not known here
   when modules compile separately, so [/] would be a hardware divide
   per block. *)
let instr_shift = Stc_util.Bits.log2_exact Stc_cfg.Block.instr_bytes

(* Timeline slices are one per replay — never per block: at millions of
   blocks per second even a no-op emission call in the inner loop would
   dominate the engine. *)
let traced ctx name f =
  match Option.bind ctx (fun c -> c.Stc_obs.Run.trace) with
  | None -> f ()
  | Some tr -> Stc_obs.Trace.span tr name f

(* The one engine core. A bank of independent per-config engine states
   is driven by a single sweep over a {!Stream} of packed pieces whose
   concatenation is the trace, so N cells over the same layout decode
   and pull each packed word once instead of N times; a solo replay
   ([run]) is a bank of one.

   The key structural fact (checked field by field against the
   shared-nothing Stc_check oracle, by the QCheck bank properties and by
   the golden harness): SEQ.3 cycle boundaries depend only on the block
   stream, [line_bytes], [max_branches] and the trace-cache contents —
   never on i-cache outcomes or direction predictions, which contribute
   penalties but cannot change what the cycle fetches. And two empty
   trace caches of equal geometry evolve identical contents over the
   same cycle sequence. So slots sharing (line_bytes, max_branches,
   trace-cache geometry) form a *cohort* advancing one shared walk; per
   slot, each sequential cycle costs at most the two i-cache probes plus
   penalty accrual (a line the cohort's last probing cycle touched is a
   hit an eligible slot counts without probing, {!Icache.retouch_safe}),
   and the cohort's lead trace cache stands in for every member's: one
   trace build per cycle decides its hit and, on a miss, is installed;
   the cohort counts lookups and hits once for all members, and a
   non-lead member's trace cache is never touched — nothing observes
   trace-cache contents.

   The caches and predictors hold state only. Every statistic of a
   result is counted here: i-cache accesses, misses and victim hits and
   direction mispredictions in each slot's locals (plus the FDIP
   frontend's own demand counts), trace-cache lookups and hits in the
   cohort's. Only evictions, which happen inside an install, are read
   back from the i-cache.

   Cohorts advance round-robin over the bank's own sliding window, each
   at most [stride_words] past the laggard, so the words being re-walked
   stay cache-resident. The stream packs each piece of the trace
   straight into the window's tail ({!Stream.fill}). The window keeps
   at least [need] words of lookahead past every cohort (except at true
   end of stream), where [need] covers a cycle's maximal forward reach:
   a sequential cycle completes at most [2 * line_bytes / instr_bytes]
   blocks and peeks one past the last, a trace-cache build walks at most
   [width] blocks, and an FDIP walk peeks [ftq_depth] blocks. Refills
   happen only between fetch cycles, so no cycle ever sees a piece
   boundary — which is why replay is bit-identical at any piece size —
   and the window compacts below the slowest cohort, keeping residency
   O(largest piece + lookahead). *)
module Bank = struct
  type spec = {
    config : Config.t;
    icache : Icache.t option;
    trace_cache : Tracecache.t option;
    prediction : prediction option;
  }

  let spec ?(config = Config.default) ?icache ?trace_cache ?prediction () =
    (match icache with
    | Some c when Icache.line_bytes c <> config.line_bytes ->
      invalid_arg
        (Printf.sprintf
           "Engine.Bank.spec: i-cache line_bytes %d differs from the \
            config's line_bytes %d"
           (Icache.line_bytes c) config.line_bytes)
    | Some _ | None -> ());
    { config; icache; trace_cache; prediction }

  (* the i-cache probe strategy is picked once per slot; an FDIP slot's
     demand probes go through its decoupled frontend *)
  type probe =
    | No_cache
    | Direct of Icache.t
    | Generic of Icache.t
    | Fdip of Fdip.t

  type slot = {
    sp : spec;
    ix : int; (* input index, for result placement *)
    probe : probe;
    skip : int; (* 3 when a re-touched line may go unprobed, else 0 *)
    penalty : int;
    mutable s_penalties : int;
    mutable s_mispred : int;
    mutable s_acc : int;
    mutable s_miss : int;
    mutable s_vhit : int;
  }

  (* slots whose cycle structure is identical share one walk *)
  type cohort = {
    line_bits : int; (* log2 of the line size *)
    cmax_branches : int;
    tc : Tracecache.t option; (* the lead: drives lookups and fills *)
    members : slot array;
    actives : slot array; (* members with an i-cache to probe *)
    preds : slot array; (* members with direction prediction *)
    fdips : Fdip.t array; (* the members' live FDIP frontends *)
    need : int;
    mutable prev_line : int; (* first line of the last probing cycle *)
    mutable pos : int; (* global block index *)
    mutable coff : int; (* intra-block offset *)
    mutable ccycles : int;
    mutable cseq : int;
    mutable ctc : int;
    mutable cinstrs : int;
    mutable ccond : int;
    mutable clookups : int;
    mutable chits : int;
  }

  let default_stride_words = 16384

  let run_segments ?ctx ?(stride_words = default_stride_words) ?resident_hwm
      ~name specs stream =
    let n = Array.length specs in
    if n = 0 then [||]
    else
      traced ctx name @@ fun () ->
      let tracer = Option.bind ctx (fun c -> c.Stc_obs.Run.trace) in
      let t0 =
        match tracer with Some tr -> Stc_obs.Trace.now tr | None -> 0.0
      in
      let instr_bytes = Stc_cfg.Block.instr_bytes in
      let stride = max 1 stride_words in
      let slots =
        Array.mapi
          (fun ix sp ->
            let probe =
              match (sp.icache, sp.config.fdip) with
              | None, _ -> No_cache
              | Some c, Some fc -> Fdip (Fdip.create fc c)
              | Some c, None when Icache.plain_direct c -> Direct c
              | Some c, None -> Generic c
            in
            let skip =
              match probe with
              | (Direct c | Generic c) when Icache.retouch_safe c -> 3
              | No_cache | Direct _ | Generic _ | Fdip _ -> 0
            in
            {
              sp;
              ix;
              probe;
              skip;
              penalty = sp.config.miss_penalty;
              s_penalties = 0;
              s_mispred = 0;
              s_acc = 0;
              s_miss = 0;
              s_vhit = 0;
            })
          specs
      in
      let cohorts =
        let key s =
          ( s.sp.config.line_bytes,
            s.sp.config.max_branches,
            Option.map Tracecache.geometry s.sp.trace_cache )
        in
        let acc = ref [] in
        (* first-appearance order, so walks are deterministic *)
        Array.iter
          (fun s ->
            let k = key s in
            match List.assoc_opt k !acc with
            | Some r -> r := s :: !r
            | None -> acc := !acc @ [ (k, ref [ s ]) ])
          slots;
        Array.of_list
          (List.map
             (fun ((line, mb, _), r) ->
               let members = Array.of_list (List.rev !r) in
               let tc = members.(0).sp.trace_cache in
               let actives =
                 Array.of_list
                   (List.filter
                      (fun s ->
                        match s.probe with No_cache -> false | _ -> true)
                      (Array.to_list members))
               in
               let preds =
                 Array.of_list
                   (List.filter
                      (fun s -> Option.is_some s.sp.prediction)
                      (Array.to_list members))
               in
               let fdips =
                 Array.of_list
                   (List.filter_map
                      (fun s ->
                        match s.probe with Fdip f -> Some f | _ -> None)
                      (Array.to_list members))
               in
               let tc_width =
                 match tc with Some tc -> Tracecache.width tc | None -> 0
               in
               let need =
                 let base = max tc_width (2 * line / instr_bytes) + 2 in
                 (* the FTQ walk peeks [ftq_depth] blocks past the cycle
                    start; the deepest member FTQ bounds the cohort's
                    forward reach within one cycle *)
                 Array.fold_left
                   (fun m s ->
                     match (s.probe, s.sp.config.fdip) with
                     | Fdip _, Some fc -> max m (fc.Fdip.ftq_depth + 2)
                     | _ -> m)
                   base members
               in
               {
                 line_bits = Stc_util.Bits.log2_exact line;
                 cmax_branches = mb;
                 tc;
                 members;
                 actives;
                 preds;
                 fdips;
                 need;
                 (* no line is within one of -2 *)
                 prev_line = -2;
                 pos = 0;
                 coff = 0;
                 ccycles = 0;
                 cseq = 0;
                 ctc = 0;
                 cinstrs = 0;
                 ccond = 0;
                 clookups = 0;
                 chits = 0;
               })
             !acc)
      in
      let gneed = Array.fold_left (fun m h -> max m h.need) 0 cohorts in
      (* the bank's own sliding window: [dropped] counts words retired
         below every cohort's position, so [h.pos - !dropped] is a
         cohort's window-local index *)
      let buf = ref [||] and avail = ref 0 in
      let eos = ref false in
      let dropped = ref 0 in
      let sum_instrs = ref 0 and sum_taken = ref 0 in
      let min_pos () =
        Array.fold_left (fun m h -> if h.pos < m then h.pos else m) max_int
          cohorts
      in
      (* compact below the slowest cohort, grow only when the next piece
         does not fit, and have the stream fill the tail *)
      let refill () =
        let plen = Stream.next_length stream in
        if plen = 0 then eos := true
        else begin
          let keep = min_pos () - !dropped in
          if keep > 0 then begin
            Array.blit !buf keep !buf 0 (!avail - keep);
            dropped := !dropped + keep;
            avail := !avail - keep
          end;
          if !avail + plen > Array.length !buf then begin
            let nb = Array.make (max (!avail + plen) (gneed + plen)) 0 in
            Array.blit !buf 0 nb 0 !avail;
            buf := nb
          end;
          let i, k = Stream.fill stream !buf ~pos:!avail in
          sum_instrs := !sum_instrs + i;
          sum_taken := !sum_taken + k;
          avail := !avail + plen
        end
      in
      (* [retouch] has bit 0 set when [a1]'s line is one of the last
         probing cycle's two lines, bit 1 when [a2]'s is: a slot whose
         [skip] allows it counts such a probe as the hit it must be
         ({!Icache.retouch_safe}) without making it *)
      let probe_slot s ~now ~retouch a1 a2 =
        match s.probe with
        | No_cache -> ()
        | Direct c ->
          s.s_acc <- s.s_acc + 2;
          let skip = retouch land s.skip in
          let h1 = skip land 1 <> 0 || Icache.probe_direct c a1 in
          let h2 = skip land 2 <> 0 || Icache.probe_direct c a2 in
          if not (h1 && h2) then begin
            s.s_miss <- s.s_miss + (if h1 then 0 else 1)
                        + (if h2 then 0 else 1);
            s.s_penalties <- s.s_penalties + s.penalty
          end
        | Generic c ->
          (* both outcomes are counted inline, so the probe allocates
             nothing; a victim hit pays no penalty *)
          s.s_acc <- s.s_acc + 2;
          let skip = retouch land s.skip in
          let m1 =
            skip land 1 = 0
            &&
            match Icache.access c a1 with
            | Icache.Miss ->
              s.s_miss <- s.s_miss + 1;
              true
            | Icache.Victim_hit ->
              s.s_vhit <- s.s_vhit + 1;
              false
            | Icache.Hit | Icache.Prefetch_hit -> false
          in
          let m2 =
            skip land 2 = 0
            &&
            match Icache.access c a2 with
            | Icache.Miss ->
              s.s_miss <- s.s_miss + 1;
              true
            | Icache.Victim_hit ->
              s.s_vhit <- s.s_vhit + 1;
              false
            | Icache.Hit | Icache.Prefetch_hit -> false
          in
          if m1 || m2 then s.s_penalties <- s.s_penalties + s.penalty
        | Fdip f ->
          (* FDIP step 2: the demand pair through the slot's frontend,
             each probe returning its cycle charge (the frontend counts
             its own misses and victim hits); the cycle pays the larger
             one, which degenerates to the historical
             one-penalty-if-either-line-misses rule when no prefetches
             are in flight *)
          s.s_acc <- s.s_acc + 2;
          let c1 = Fdip.demand f ~now ~miss_penalty:s.penalty a1 in
          let c2 = Fdip.demand f ~now ~miss_penalty:s.penalty a2 in
          s.s_penalties <- s.s_penalties + (if c1 > c2 then c1 else c2)
      in
      (* FDIP step 3 for every frontend of a cohort: walk the FTQ from
         the cycle-start block *)
      let fdip_advance fdips ~now words ~len ~idx ~gidx =
        for i = 0 to Array.length fdips - 1 do
          Fdip.advance (Array.unsafe_get fdips i) ~now words ~len ~idx ~gidx
        done
      in
      (* per conditional branch (callers test [w_cond] first, so the
         common all-sequential block costs no call): count it once for
         the cohort, then count and charge each predicting member its
         own mispredictions *)
      let cond_block h w =
        h.ccond <- h.ccond + 1;
        let preds = h.preds in
        for i = 0 to Array.length preds - 1 do
          let s = Array.unsafe_get preds i in
          match s.sp.prediction with
          | Some { pred; redirect_penalty } ->
            let pc = w_addr w + ((w_size w - 1) * 4) in
            if
              not
                (Predictor.predict_and_update pred ~pc
                   ~taken:(w_taken w))
            then begin
              s.s_mispred <- s.s_mispred + 1;
              s.s_penalties <- s.s_penalties + redirect_penalty
            end
          | None -> ()
        done
      in
      (* a trace-cache hit: the built trace supplies the whole cycle *)
      let trace_cycle h (b : Tracecache.built) words ~start_idx =
        h.chits <- h.chits + 1;
        h.ctc <- h.ctc + 1;
        h.cinstrs <- h.cinstrs + b.Tracecache.instrs;
        let stop = b.Tracecache.end_idx in
        for i = start_idx to stop - 1 do
          let w = Array.unsafe_get words i in
          if w_cond w then cond_block h w
        done;
        h.pos <- !dropped + stop;
        h.coff <- b.Tracecache.end_off
      in
      (* a sequential cycle: probe the two-line window in every active
         slot, then walk SEQ.3 to the cycle's end *)
      let seq_cycle h words ~len ~now ~start_idx ~start_off =
        h.cseq <- h.cseq + 1;
        let a =
          w_addr (Array.unsafe_get words start_idx)
          + (start_off lsl instr_shift)
        in
        let lb = h.line_bits in
        let line_no = a lsr lb in
        let a1 = line_no lsl lb and a2 = (line_no + 1) lsl lb in
        (* a trace-cache hit probes nothing, so the last probing cycle's
           lines are [prev_line] and the next one *)
        let retouch =
          match line_no - h.prev_line with
          | 0 -> 3
          | 1 -> 1
          | -1 -> 2
          | _ -> 0
        in
        h.prev_line <- line_no;
        let actives = h.actives in
        for i = 0 to Array.length actives - 1 do
          probe_slot (Array.unsafe_get actives i) ~now ~retouch a1 a2
        done;
        let window_end = (line_no + 2) lsl lb in
        let idx = ref start_idx and off = ref start_off in
        let branches = ref 0 in
        let stop = ref false in
        while not !stop do
          let w = Array.unsafe_get words !idx in
          let size = w_size w in
          let cur_addr = w_addr w + (!off lsl instr_shift) in
          (* positive: the walk only reaches words below [window_end] *)
          let space = (window_end - cur_addr) lsr instr_shift in
          let remaining = size - !off in
          let take = if remaining <= space then remaining else space in
          h.cinstrs <- h.cinstrs + take;
          if take < remaining then begin
            off := !off + take;
            stop := true
          end
          else begin
            let was_branch = w_branch w in
            let taken = w_taken w in
            if was_branch then incr branches;
            if w_cond w then cond_block h w;
            incr idx;
            off := 0;
            if
              taken
              || (was_branch && !branches >= h.cmax_branches)
              || !idx >= len
            then stop := true
            else if w_addr (Array.unsafe_get words !idx) >= window_end then
              stop := true
          end
        done;
        h.pos <- !dropped + !idx;
        h.coff <- !off
      in
      (* one fetch cycle for cohort [h], entirely within the buffered
         lookahead: one trace build for the lead trace cache, if any,
         then either its hit or a sequential cycle followed by the
         install of that same build *)
      let step_cohort h =
        let words = !buf in
        let len = !avail in
        let start_pos = h.pos in
        let start_idx = start_pos - !dropped and start_off = h.coff in
        (* FDIP steps 1 and 3 bracket the cycle for every frontend-bearing
           member: land elapsed prefetches first (the frontend runs on
           every cycle, trace-cache hits included), walk the FTQ from the
           cycle-start index last *)
        let now = h.ccycles + 1 in
        let fdips = h.fdips in
        for i = 0 to Array.length fdips - 1 do
          Fdip.begin_cycle (Array.unsafe_get fdips i) ~now
        done;
        h.ccycles <- now;
        (match h.tc with
        | None -> seq_cycle h words ~len ~now ~start_idx ~start_off
        | Some tc ->
          h.clookups <- h.clookups + 1;
          if Tracecache.build tc words ~len ~idx:start_idx ~off:start_off
          then trace_cycle h (Tracecache.built tc) words ~start_idx
          else begin
            seq_cycle h words ~len ~now ~start_idx ~start_off;
            Tracecache.install tc
          end);
        fdip_advance fdips ~now words ~len ~idx:start_idx ~gidx:start_pos
      in
      let finished () =
        Array.for_all (fun h -> h.pos - !dropped >= !avail) cohorts
      in
      while (not !eos) || not (finished ()) do
        let mn_lp = min_pos () - !dropped in
        if (not !eos) && !avail - mn_lp < gneed then refill ()
        else begin
          (* one round: every cohort advances to at most [stride] words
             past the laggard (or as far as its lookahead allows) *)
          let limit = min !avail (mn_lp + stride) in
          Array.iter
            (fun h ->
              let hneed = h.need in
              let cont = ref true in
              while !cont do
                let lp = h.pos - !dropped in
                if lp >= limit || ((not !eos) && !avail - lp < hneed) then
                  cont := false
                else step_cohort h
              done)
            cohorts
        end
      done;
      (* the window only grows, so its final size is its high-water mark *)
      (match resident_hwm with Some r -> r := Array.length !buf | None -> ());
      let fdip_count get s = match s.probe with Fdip f -> get f | _ -> 0 in
      let out = Array.make n None in
      Array.iter
        (fun h ->
          Array.iter
            (fun s ->
              (* a slot without an i-cache never moves its i-cache
                 locals; the trace-cache geometry is part of the cohort
                 key, so the cohort's lookups and hits are every
                 member's, and 0 in a cohort without one *)
              let r =
                {
                  instrs = h.cinstrs;
                  cycles = h.ccycles + s.s_penalties;
                  fetch_cycles = h.ccycles;
                  seq_cycles = h.cseq;
                  tc_cycles = h.ctc;
                  icache_accesses = s.s_acc;
                  icache_misses = s.s_miss + fdip_count Fdip.demand_misses s;
                  icache_victim_hits =
                    s.s_vhit + fdip_count Fdip.demand_victim_hits s;
                  tc_lookups = h.clookups;
                  tc_hits = h.chits;
                  taken_branches = !sum_taken;
                  instrs_between_taken =
                    (if !sum_taken = 0 then float_of_int !sum_instrs
                     else
                       float_of_int !sum_instrs /. float_of_int !sum_taken);
                  cond_branches = h.ccond;
                  mispredictions = s.s_mispred;
                  icache_evictions =
                    (match s.sp.icache with
                    | Some c -> Icache.evictions c
                    | None -> 0);
                  prefetch_issued = fdip_count Fdip.issued s;
                  prefetch_completed = fdip_count Fdip.completed s;
                  prefetch_late = fdip_count Fdip.late s;
                  prefetch_useful = fdip_count Fdip.useful s;
                }
              in
              out.(s.ix) <- Some r)
            h.members)
        cohorts;
      let results =
        Array.map (function Some r -> r | None -> assert false) out
      in
      (match tracer with
      | Some tr -> Stc_obs.Trace.complete ~arg:n tr "engine.fused" ~start:t0
      | None -> ());
      results

  let run_packed ?ctx ?stride_words specs packed =
    run_segments ?ctx ?stride_words ~name:"engine.fused_packed" specs
      (Stream.of_packed packed)

  let run_stream ?ctx ?stride_words ?resident_hwm specs stream =
    run_segments ?ctx ?stride_words ?resident_hwm ~name:"engine.fused_stream"
      specs stream
end

(* A solo replay is a bank of one. *)
let run ?config ?icache ?trace_cache ?prediction view =
  (Bank.run_stream
     [| Bank.spec ?config ?icache ?trace_cache ?prediction () |]
     (View.stream view)).(0)
