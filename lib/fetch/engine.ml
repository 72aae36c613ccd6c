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

let result_fields r =
  [
    ("instrs", float_of_int r.instrs);
    ("cycles", float_of_int r.cycles);
    ("fetch_cycles", float_of_int r.fetch_cycles);
    ("seq_cycles", float_of_int r.seq_cycles);
    ("tc_cycles", float_of_int r.tc_cycles);
    ("icache_accesses", float_of_int r.icache_accesses);
    ("icache_misses", float_of_int r.icache_misses);
    ("icache_victim_hits", float_of_int r.icache_victim_hits);
    ("tc_lookups", float_of_int r.tc_lookups);
    ("tc_hits", float_of_int r.tc_hits);
    ("taken_branches", float_of_int r.taken_branches);
    ("instrs_between_taken", r.instrs_between_taken);
    ("cond_branches", float_of_int r.cond_branches);
    ("mispredictions", float_of_int r.mispredictions);
    ("icache_evictions", float_of_int r.icache_evictions);
    ("prefetch_issued", float_of_int r.prefetch_issued);
    ("prefetch_completed", float_of_int r.prefetch_completed);
    ("prefetch_late", float_of_int r.prefetch_late);
    ("prefetch_useful", float_of_int r.prefetch_useful);
  ]

let publish reg r =
  let module Reg = Stc_obs.Registry in
  let module C = Stc_obs.Metric.Counter in
  let add name v = C.add (Reg.counter reg ("engine." ^ name)) v in
  add "instrs" r.instrs;
  add "cycles" r.cycles;
  add "fetch_cycles" r.fetch_cycles;
  add "seq_cycles" r.seq_cycles;
  add "tc_cycles" r.tc_cycles;
  add "icache_accesses" r.icache_accesses;
  add "icache_misses" r.icache_misses;
  add "icache_victim_hits" r.icache_victim_hits;
  add "tc_lookups" r.tc_lookups;
  add "tc_hits" r.tc_hits;
  add "cond_branches" r.cond_branches;
  add "mispredictions" r.mispredictions;
  (* the prefetch/replacement family is published only when live, so an
     export containing only pre-PR configurations stays byte-identical;
     results are deterministic, hence so is the condition *)
  let addnz name v = if v <> 0 then add name v in
  addnz "icache.replacement.evictions" r.icache_evictions;
  addnz "prefetch.issued" r.prefetch_issued;
  addnz "prefetch.completed" r.prefetch_completed;
  addnz "prefetch.late" r.prefetch_late;
  addnz "prefetch.useful" r.prefetch_useful;
  C.incr (Reg.counter reg "engine.runs")

(* Packed-word decoders over {!Packed}'s field constants. They live here
   rather than in Packed so that the walk below inlines them: a call into
   another module stays out of line when modules compile separately. *)
let w_addr w = w lsr Packed.addr_shift

let w_size w = (w lsr Packed.size_shift) land Packed.size_mask

let w_taken w = w land Packed.taken_bit <> 0

let w_branch w = w land Packed.branch_bit <> 0

let w_cond w = w land Packed.cond_bit <> 0

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
   ([run_packed], [run]) is a bank of one.

   The key structural fact (checked field by field against the
   shared-nothing Stc_check oracle, by the QCheck bank properties and by
   the golden harness): SEQ.3 cycle boundaries depend only on the block
   stream, [line_bytes], [max_branches] and the trace-cache contents —
   never on i-cache outcomes or direction predictions, which contribute
   penalties but cannot change what the cycle fetches. And two empty
   trace caches of equal geometry evolve identical contents over the
   same cycle sequence. So slots sharing (line_bytes, max_branches,
   trace-cache geometry) form a *cohort* advancing one shared walk; per
   slot, each sequential cycle costs only the two i-cache probes plus
   penalty accrual, and the cohort's lead trace cache stands in for
   every member's (their statistics are batched in cohort locals and
   flushed to each member, so counter values match a bank of one;
   member trace-cache *contents* are not materialized — nothing
   observes them).

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
    { config; icache; trace_cache; prediction }

  (* the i-cache probe strategy is picked once per slot *)
  type probe = No_cache | Direct of Icache.t | Generic of Icache.t

  type slot = {
    sp : spec;
    ix : int; (* input index, for result placement *)
    probe : probe;
    penalty : int;
    s_fdip : Fdip.t option; (* per-slot decoupled frontend, if any *)
    mutable s_penalties : int;
    mutable s_acc : int;
    mutable s_miss : int;
    mutable s_vhit : int;
  }

  (* slots whose cycle structure is identical share one walk *)
  type cohort = {
    line : int;
    cmax_branches : int;
    tc : Tracecache.t option; (* the lead: drives lookups and fills *)
    members : slot array;
    actives : slot array; (* members with an i-cache to probe *)
    preds : slot array; (* members with direction prediction *)
    fdips : slot array; (* members with a live FDIP frontend *)
    need : int;
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
      let metrics = Option.bind ctx (fun c -> c.Stc_obs.Run.metrics) in
      let tracer = Option.bind ctx (fun c -> c.Stc_obs.Run.trace) in
      let fused_id =
        match tracer with
        | Some tr -> Stc_obs.Trace.intern tr "engine.fused"
        | None -> 0
      in
      let t0 =
        match tracer with Some tr -> Stc_obs.Trace.now tr | None -> 0.0
      in
      let instr_bytes = Stc_cfg.Block.instr_bytes in
      let stride = max 1 stride_words in
      let slots =
        Array.mapi
          (fun ix sp ->
            let s_fdip =
              match (sp.config.fdip, sp.icache) with
              | Some fc, Some c -> Some (Fdip.create fc c)
              | _ -> None
            in
            let probe =
              match sp.icache with
              | None -> No_cache
              | Some c when Icache.plain_direct c && Option.is_none s_fdip ->
                Direct c
              | Some c -> Generic c
            in
            {
              sp;
              ix;
              probe;
              penalty = sp.config.miss_penalty;
              s_fdip;
              s_penalties = 0;
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
                   (List.filter
                      (fun s -> Option.is_some s.s_fdip)
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
                     match s.sp.config.fdip with
                     | Some fc when Option.is_some s.s_fdip ->
                       max m (fc.Fdip.ftq_depth + 2)
                     | _ -> m)
                   base members
               in
               {
                 line;
                 cmax_branches = mb;
                 tc;
                 members;
                 actives;
                 preds;
                 fdips;
                 need;
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
      let probe_slot s ~now a1 a2 =
        match s.s_fdip with
        | Some f ->
          (* FDIP step 2: the demand pair through the slot's frontend,
             each probe returning its cycle charge; the cycle pays the
             larger one, which degenerates to the historical
             one-penalty-if-either-line-misses rule when no prefetches
             are in flight *)
          s.s_acc <- s.s_acc + 2;
          let count (o : Icache.outcome) =
            match o with
            | Icache.Hit -> ()
            | Icache.Victim_hit -> s.s_vhit <- s.s_vhit + 1
            | Icache.Miss -> s.s_miss <- s.s_miss + 1
          in
          let o1, c1 = Fdip.demand f ~now ~miss_penalty:s.penalty a1 in
          count o1;
          let o2, c2 = Fdip.demand f ~now ~miss_penalty:s.penalty a2 in
          count o2;
          s.s_penalties <- s.s_penalties + (if c1 > c2 then c1 else c2)
        | None -> (
          match s.probe with
          | No_cache -> ()
          | Direct c ->
          s.s_acc <- s.s_acc + 2;
          let h1 = Icache.probe_direct c a1 in
          let h2 = Icache.probe_direct c a2 in
          if not (h1 && h2) then begin
            s.s_miss <- s.s_miss + (if h1 then 0 else 1)
                        + (if h2 then 0 else 1);
            s.s_penalties <- s.s_penalties + s.penalty
          end
        | Generic c ->
          s.s_acc <- s.s_acc + 2;
          let probe a =
            match Icache.access_uncounted c a with
            | Icache.Hit -> true
            | Icache.Victim_hit ->
              s.s_vhit <- s.s_vhit + 1;
              true
            | Icache.Miss ->
              s.s_miss <- s.s_miss + 1;
              false
          in
          let h1 = probe a1 in
          let h2 = probe a2 in
          if not (h1 && h2) then s.s_penalties <- s.s_penalties + s.penalty)
      in
      (* per conditional branch (callers test [w_cond] first, so the
         common all-sequential block costs no call): count it once for
         the cohort, then charge each predicting member its own
         redirects *)
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
            then s.s_penalties <- s.s_penalties + redirect_penalty
          | None -> ()
        done
      in
      (* one fetch cycle for cohort [h], entirely within the buffered
         lookahead *)
      let step_cohort h =
        let words = !buf in
        let len = !avail in
        let start_idx = h.pos - !dropped and start_off = h.coff in
        (* FDIP steps 1 and 3 bracket the cycle for every frontend-bearing
           member: land elapsed prefetches first (the frontend runs on
           every cycle, trace-cache hits included), walk the FTQ from the
           cycle-start index last *)
        let fnow = h.ccycles + 1 in
        let fdips = h.fdips in
        for i = 0 to Array.length fdips - 1 do
          match (Array.unsafe_get fdips i).s_fdip with
          | Some f -> Fdip.begin_cycle f ~now:fnow
          | None -> ()
        done;
        let fdip_advance () =
          for i = 0 to Array.length fdips - 1 do
            match (Array.unsafe_get fdips i).s_fdip with
            | Some f ->
              Fdip.advance f ~now:fnow ~nth:(fun k ->
                  let i = start_idx + k in
                  if i < len then
                    Some (w_addr (Array.unsafe_get words i))
                  else None)
            | None -> ()
          done
        in
        let tc_hit =
          match h.tc with
          | None -> None
          | Some tc ->
            h.clookups <- h.clookups + 1;
            let r =
              Tracecache.lookup_uncounted tc words ~len ~idx:start_idx
                ~off:start_off
            in
            (match r with Some _ -> h.chits <- h.chits + 1 | None -> ());
            r
        in
        match tc_hit with
        | Some info when info.Tracecache.n_instrs > 0 ->
          h.ccycles <- h.ccycles + 1;
          h.ctc <- h.ctc + 1;
          h.cinstrs <- h.cinstrs + info.Tracecache.n_instrs;
          let stop = info.Tracecache.end_pos.View.idx in
          for i = start_idx to stop - 1 do
            let w = Array.unsafe_get words i in
            if w_cond w then cond_block h w
          done;
          h.pos <- !dropped + stop;
          h.coff <- info.Tracecache.end_pos.View.off;
          fdip_advance ()
        | Some _ | None ->
          h.ccycles <- h.ccycles + 1;
          h.cseq <- h.cseq + 1;
          let a =
            w_addr (Array.unsafe_get words start_idx)
            + (start_off * instr_bytes)
          in
          let line_no = a / h.line in
          let a1 = line_no * h.line and a2 = (line_no + 1) * h.line in
          let actives = h.actives in
          for i = 0 to Array.length actives - 1 do
            probe_slot (Array.unsafe_get actives i) ~now:fnow a1 a2
          done;
          let window_end = (line_no + 2) * h.line in
          let idx = ref start_idx and off = ref start_off in
          let branches = ref 0 in
          let stop = ref false in
          while not !stop do
            let w = Array.unsafe_get words !idx in
            let size = w_size w in
            let cur_addr = w_addr w + (!off * instr_bytes) in
            let space = (window_end - cur_addr) / instr_bytes in
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
              else if
                w_addr (Array.unsafe_get words !idx) >= window_end
              then stop := true
            end
          done;
          (match h.tc with
          | Some tc ->
            Tracecache.fill_packed tc words ~len ~idx:start_idx
              ~off:start_off
          | None -> ());
          h.pos <- !dropped + !idx;
          h.coff <- !off;
          fdip_advance ()
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
      let out = Array.make n None in
      Array.iter
        (fun h ->
          Array.iter
            (fun s ->
              (* flush the batched statistics into each member's caches
                 before anything snapshots them, so the shared counters
                 end exactly where per-access counting would leave them *)
              (match s.sp.icache with
              | Some c ->
                Icache.add_stats c ~accesses:s.s_acc ~misses:s.s_miss
                  ~victim_hits:s.s_vhit
              | None -> ());
              (match s.sp.trace_cache with
              | Some tc ->
                Tracecache.add_stats tc ~lookups:h.clookups ~hits:h.chits
              | None -> ());
              let icache_accesses, icache_misses, icache_victim_hits =
                match s.sp.icache with
                | None -> (0, 0, 0)
                | Some c ->
                  let st = Icache.stats c in
                  (st.Icache.s_accesses, st.Icache.s_misses,
                   st.Icache.s_victim_hits)
              in
              let r =
                {
                  instrs = h.cinstrs;
                  cycles = h.ccycles + s.s_penalties;
                  fetch_cycles = h.ccycles;
                  seq_cycles = h.cseq;
                  tc_cycles = h.ctc;
                  icache_accesses;
                  icache_misses;
                  icache_victim_hits;
                  tc_lookups =
                    (match s.sp.trace_cache with
                    | None -> 0
                    | Some tc -> Tracecache.lookups tc);
                  tc_hits =
                    (match s.sp.trace_cache with
                    | None -> 0
                    | Some tc -> Tracecache.hits tc);
                  taken_branches = !sum_taken;
                  instrs_between_taken =
                    (if !sum_taken = 0 then float_of_int !sum_instrs
                     else
                       float_of_int !sum_instrs /. float_of_int !sum_taken);
                  cond_branches = h.ccond;
                  mispredictions =
                    (match s.sp.prediction with
                    | Some { pred; _ } -> Predictor.mispredictions pred
                    | None -> 0);
                  icache_evictions =
                    (match s.sp.icache with
                    | Some c -> Icache.evictions c
                    | None -> 0);
                  prefetch_issued =
                    (match s.s_fdip with
                    | Some f -> Fdip.issued f
                    | None -> 0);
                  prefetch_completed =
                    (match s.s_fdip with
                    | Some f -> Fdip.completed f
                    | None -> 0);
                  prefetch_late =
                    (match s.s_fdip with Some f -> Fdip.late f | None -> 0);
                  prefetch_useful =
                    (match s.s_fdip with
                    | Some f -> Fdip.useful f
                    | None -> 0);
                }
              in
              out.(s.ix) <- Some r)
            h.members)
        cohorts;
      let results =
        Array.map (function Some r -> r | None -> assert false) out
      in
      (match metrics with
      | Some reg -> Array.iter (publish reg) results
      | None -> ());
      (match tracer with
      | Some tr -> Stc_obs.Trace.complete ~arg:n tr fused_id ~start:t0
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
let run_packed ?ctx ?config ?icache ?trace_cache ?prediction packed =
  (Bank.run_segments ?ctx ~name:"engine.run_packed"
     [| Bank.spec ?config ?icache ?trace_cache ?prediction () |]
     (Stream.of_packed packed)).(0)

let run ?ctx ?config ?icache ?trace_cache ?prediction view =
  run_packed ?ctx ?config ?icache ?trace_cache ?prediction (View.pack view)
