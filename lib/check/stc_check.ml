module Json = Stc_obs.Json
module Run = Stc_core.Run
module Pipeline = Stc_core.Pipeline
module Program = Stc_cfg.Program
module Block = Stc_cfg.Block
module Profile = Stc_profile.Profile
module Layout = Stc_layout.Layout
module Mapping = Stc_layout.Mapping
module L = Stc_layout
module View = Stc_fetch.View
module Engine = Stc_fetch.Engine
module Real_icache = Stc_cachesim.Icache
module Real_tc = Stc_fetch.Tracecache

(* ------------------------------------------------------------------ *)
(* Layout validators                                                   *)
(* ------------------------------------------------------------------ *)

module Layouts = struct
  type violation =
    | Wrong_block_count of { expected : int; got : int }
    | Unplaced of { block : int; count : int }
    | Misaligned of { block : int; addr : int }
    | Overlap of { block_a : int; block_b : int; addr : int }
    | Plan_not_partition of { block : int; times : int }
    | Cfa_overflow of { block : int; addr : int; limit : int }
    | Cfa_intrusion of { block : int; addr : int; window : int }

  let violation_to_string = function
    | Wrong_block_count { expected; got } ->
      Printf.sprintf "layout covers %d blocks, program has %d" got expected
    | Unplaced { block; count } ->
      Printf.sprintf "executed block %d (count %d) has no valid placement"
        block count
    | Misaligned { block; addr } ->
      Printf.sprintf "block %d at address %d is not instruction-aligned"
        block addr
    | Overlap { block_a; block_b; addr } ->
      Printf.sprintf "blocks %d and %d overlap at address %d" block_a
        block_b addr
    | Plan_not_partition { block; times } ->
      Printf.sprintf "plan mentions block %d %d times (want exactly 1)"
        block times
    | Cfa_overflow { block; addr; limit } ->
      Printf.sprintf "CFA block %d at address %d ends past the CFA (%d bytes)"
        block addr limit
    | Cfa_intrusion { block; addr; window } ->
      Printf.sprintf
        "second-pass block %d at address %d intrudes into the CFA window of \
         logical cache %d"
        block addr window

  let structure prog (layout : Layout.t) =
    let expected = Array.length prog.Program.blocks in
    let got = Array.length layout.Layout.addr in
    if got <> expected then [ Wrong_block_count { expected; got } ]
    else begin
      let vs = ref [] in
      let add v = vs := v :: !vs in
      Array.iteri
        (fun b a ->
          if a < 0 then add (Unplaced { block = b; count = 0 })
          else if a mod Block.instr_bytes <> 0 then
            add (Misaligned { block = b; addr = a }))
        layout.Layout.addr;
      (* non-overlap: sort by address, check adjacent byte ranges *)
      let order = Array.init got (fun b -> b) in
      Array.sort
        (fun a b ->
          compare
            (layout.Layout.addr.(a), a)
            (layout.Layout.addr.(b), b))
        order;
      for i = 0 to got - 2 do
        let a = order.(i) and b = order.(i + 1) in
        let a_end =
          layout.Layout.addr.(a) + Block.byte_size prog.Program.blocks.(a)
        in
        if a_end > layout.Layout.addr.(b) then
          add
            (Overlap
               { block_a = a; block_b = b; addr = layout.Layout.addr.(b) })
      done;
      List.rev !vs
    end

  let coverage profile (layout : Layout.t) =
    let n = Array.length layout.Layout.addr in
    let counts = Profile.counts profile in
    let vs = ref [] in
    Array.iteri
      (fun b count ->
        if count > 0 && (b >= n || layout.Layout.addr.(b) < 0) then
          vs := Unplaced { block = b; count } :: !vs)
      counts;
    List.rev !vs

  let cfa prog (layout : Layout.t) ~cache_bytes ~cfa_bytes
      (plan : Mapping.plan) =
    let n = Array.length prog.Program.blocks in
    if Array.length layout.Layout.addr <> n then
      (* structure already reports this; the per-block checks below
         would index out of bounds *)
      []
    else begin
      let vs = ref [] in
      let add v = vs := v :: !vs in
      (* the three parts must partition the block set *)
      let times = Array.make n 0 in
      let mention b = if b >= 0 && b < n then times.(b) <- times.(b) + 1 in
      List.iter (List.iter (List.iter mention))
        [ plan.Mapping.cfa_seqs; plan.Mapping.other_seqs ];
      List.iter mention plan.Mapping.cold;
      Array.iteri
        (fun b t -> if t <> 1 then add (Plan_not_partition { block = b; times = t }))
        times;
      (* first-pass blocks live wholly inside the CFA *)
      List.iter
        (List.iter (fun b ->
             let a = layout.Layout.addr.(b) in
             if a < 0 || a + Block.byte_size prog.Program.blocks.(b) > cfa_bytes
             then add (Cfa_overflow { block = b; addr = a; limit = cfa_bytes })))
        plan.Mapping.cfa_seqs;
      (* second-pass blocks never touch a CFA window *)
      if cfa_bytes > 0 then
        List.iter
          (List.iter (fun b ->
               let s = layout.Layout.addr.(b) in
               let e = s + Block.byte_size prog.Program.blocks.(b) in
               if s >= 0 then
                 for k = s / cache_bytes to (e - 1) / cache_bytes do
                   let w_start = k * cache_bytes in
                   if max s w_start < min e (w_start + cfa_bytes) then
                     add (Cfa_intrusion { block = b; addr = s; window = k })
                 done))
          plan.Mapping.other_seqs;
      List.rev !vs
    end

  let all ?cfa_plan profile layout =
    let prog = Profile.program profile in
    structure prog layout
    @ coverage profile layout
    @
    match cfa_plan with
    | None -> []
    | Some (plan, cache_bytes, cfa_bytes) ->
      cfa prog layout ~cache_bytes ~cfa_bytes plan
end

(* ------------------------------------------------------------------ *)
(* Reference models                                                    *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  (* The models below deliberately share neither code nor data layout
     with the simulators they check: recency is an MRU-ordered list, not
     timestamps; the trace cache is an association list, not an array;
     the fetch walker advances one instruction at a time, not one block.
     Outcome equivalence is argued per operation in comments. *)

  module Icache = struct
    type t = {
      assoc : int;
      line_bytes : int;
      n_sets : int;
      victim_cap : int;
      policy : Real_icache.policy;
      sets : int list array;  (* LRU: resident lines per set, MRU first *)
      rsets : (int * int) list array;
          (* RRIP: (line, rrpv) per set, oldest install first *)
      mutable victim : int list;  (* insertion order, MRU first *)
      mutable marks : int list;  (* prefetched-and-not-yet-demanded lines *)
      mutable evictions : int;  (* valid lines replaced (non-LRU only) *)
    }

    let create ?(assoc = 1) ?(line_bytes = 32) ?(victim_lines = 0)
        ?(policy = Real_icache.Lru) ~size_bytes () =
      if assoc < 1 then invalid_arg "Oracle.Icache.create: assoc";
      if line_bytes <= 0 || size_bytes <= 0
         || size_bytes mod (assoc * line_bytes) <> 0
      then invalid_arg "Oracle.Icache.create: geometry";
      {
        assoc;
        line_bytes;
        n_sets = size_bytes / (assoc * line_bytes);
        victim_cap = victim_lines;
        policy;
        sets = Array.make (size_bytes / (assoc * line_bytes)) [];
        rsets = Array.make (size_bytes / (assoc * line_bytes)) [];
        victim = [];
        marks = [];
        evictions = 0;
      }

    let evictions t = t.evictions

    let remove x l = List.filter (fun y -> y <> x) l

    let rec take n = function
      | [] -> []
      | _ when n <= 0 -> []
      | x :: tl -> x :: take (n - 1) tl

    (* Probe the victim buffer for [line] exactly as [victim_swap] does:
       the evicted line (if any) replaces the hit slot on a victim hit,
       or an invalid/LRU slot on a victim miss; nothing is inserted when
       the main set had a free way. *)
    let victim_outcome t line evicted =
      if t.victim_cap = 0 then Real_icache.Miss
      else if List.mem line t.victim then begin
        let rest = remove line t.victim in
        t.victim <- (match evicted with Some e -> e :: rest | None -> rest);
        Real_icache.Victim_hit
      end
      else begin
        (match evicted with
        | Some e -> t.victim <- take t.victim_cap (e :: t.victim)
        | None -> ());
        Real_icache.Miss
      end

    (* Insertion RRPV, mirroring [Icache.insert_rrpv]. *)
    let rrip_insert t line =
      match t.policy with
      | Real_icache.Lru -> 0
      | Real_icache.Srrip -> 2
      | Real_icache.Trrip temps ->
        let temp = if line < Array.length temps then temps.(line) else 2 in
        if temp <= 0 then 0 else if temp = 1 then 2 else 3

    (* Install into an RRIP set: reuse a free way if one exists, else age
       every way uniformly until the maximum RRPV reaches 3 and evict the
       oldest-installed way standing there. The real cache breaks RRPV-3
       ties by minimum install stamp and hits never touch stamps, so its
       victim is always the oldest-installed RRPV-3 way — here the list
       is kept in install order (hits rewrite RRPVs in place, installs
       append at the tail), so that victim is the first match. Returns
       the evicted line, if any. *)
    let rrip_install t set line ~rrpv =
      let ways = t.rsets.(set) in
      if List.length ways < t.assoc then begin
        t.rsets.(set) <- ways @ [ (line, rrpv) ];
        None
      end
      else begin
        let m = List.fold_left (fun acc (_, r) -> max acc r) 0 ways in
        let ways = List.map (fun (l, r) -> (l, r + 3 - m)) ways in
        let rec split seen = function
          | (l, 3) :: tl -> (l, List.rev_append seen tl)
          | w :: tl -> split (w :: seen) tl
          | [] -> assert false
        in
        let victim, rest = split [] ways in
        t.rsets.(set) <- rest @ [ (line, rrpv) ];
        t.evictions <- t.evictions + 1;
        t.marks <- remove victim t.marks;
        Some victim
      end

    (* Equivalent to [Stc_cachesim.Icache.access], except that a hit
       that consumed a prefetch mark is a [Hit] with the flag [true]
       where the real cache returns [Prefetch_hit]: a hit refreshes the
       replacement state (stamps there, move-to-front here under LRU;
       RRPV := 0 under RRIP) and consumes the line's prefetch mark; a
       miss installs the line over an invalid way if one exists (which
       invalid way is chosen is unobservable) or the policy's victim
       (LRU stamps are unique, so LRU = list tail), and the victim
       buffer receives the evicted line. *)
    let demand t addr =
      let line = addr / t.line_bytes in
      let set = line mod t.n_sets in
      match t.policy with
      | Real_icache.Lru ->
        let ways = t.sets.(set) in
        if List.mem line ways then begin
          t.sets.(set) <- line :: remove line ways;
          let was_pref = List.mem line t.marks in
          t.marks <- remove line t.marks;
          (Real_icache.Hit, was_pref)
        end
        else begin
          let evicted =
            if List.length ways >= t.assoc then
              Some (List.nth ways (t.assoc - 1))
            else None
          in
          t.sets.(set) <- line :: take (t.assoc - 1) ways;
          (match evicted with
          | Some e -> t.marks <- remove e t.marks
          | None -> ());
          (victim_outcome t line evicted, false)
        end
      | Real_icache.Srrip | Real_icache.Trrip _ ->
        let ways = t.rsets.(set) in
        if List.mem_assoc line ways then begin
          t.rsets.(set) <-
            List.map (fun (l, r) -> if l = line then (l, 0) else (l, r)) ways;
          let was_pref = List.mem line t.marks in
          t.marks <- remove line t.marks;
          (Real_icache.Hit, was_pref)
        end
        else begin
          let evicted = rrip_install t set line ~rrpv:(rrip_insert t line) in
          (victim_outcome t line evicted, false)
        end

    let access t addr = fst (demand t addr)

    let mem t addr =
      let line = addr / t.line_bytes in
      let set = line mod t.n_sets in
      match t.policy with
      | Real_icache.Lru -> List.mem line t.sets.(set)
      | Real_icache.Srrip | Real_icache.Trrip _ ->
        List.mem_assoc line t.rsets.(set)

    (* Mirror of [Stc_cachesim.Icache.fill_prefetch]: a no-op when the
       line is resident, else a normal install marked as prefetched —
       MRU under LRU, distant (RRPV 3) under RRIP — with the evicted
       line passing through the victim buffer. Never touches the access
       statistics. *)
    let fill_prefetch t addr =
      let line = addr / t.line_bytes in
      let set = line mod t.n_sets in
      if not (mem t addr) then begin
        (match t.policy with
        | Real_icache.Lru ->
          let ways = t.sets.(set) in
          let evicted =
            if List.length ways >= t.assoc then
              Some (List.nth ways (t.assoc - 1))
            else None
          in
          t.sets.(set) <- line :: take (t.assoc - 1) ways;
          (match evicted with
          | Some e -> t.marks <- remove e t.marks
          | None -> ());
          ignore (victim_outcome t line evicted)
        | Real_icache.Srrip | Real_icache.Trrip _ ->
          let evicted = rrip_install t set line ~rrpv:3 in
          ignore (victim_outcome t line evicted));
        t.marks <- line :: t.marks
      end
  end

  module Tracecache = struct
    type entry = { start_addr : int; n : int; br : int; outs : int }

    type t = {
      entries : int;
      mutable slots : (int * entry) list;  (* index -> entry *)
    }

    (* the real trace cache's default geometry: 16 instructions, at most
       3 branches per trace *)
    let width = 16

    let max_branches = 3

    let create ?(entries = 256) () =
      if entries <= 0 then invalid_arg "Oracle.Tracecache.create: entries";
      { entries; slots = [] }

    let index t addr = addr / 4 mod t.entries

    (* One instruction per recursion step; stops exactly where
       [Stc_fetch.Tracecache]'s trace build stops (the width check at the
       loop head covers the hit-width-exactly-at-block-end case, where
       the block's branch is still recorded). *)
    let build view (pos : View.pos) =
      let len = View.length view in
      let rec go n br outs idx off =
        if idx >= len || n >= width then (n, br, outs, idx, off)
        else
          let n = n + 1 and off = off + 1 in
          if off < View.block_size view idx then go n br outs idx off
          else
            let br, outs =
              if View.has_branch view idx then
                ( br + 1,
                  if View.taken view idx then outs lor (1 lsl br) else outs )
              else (br, outs)
            in
            if br >= max_branches then (n, br, outs, idx + 1, 0)
            else go n br outs (idx + 1) 0
      in
      go 0 0 0 pos.View.idx pos.View.off

    let lookup t view (pos : View.pos) =
      let a = View.addr view pos in
      match List.assoc_opt (index t a) t.slots with
      | Some e when e.start_addr = a ->
        let n, br, outs, eidx, eoff = build view pos in
        if n = e.n && br = e.br && outs = e.outs then Some (n, eidx, eoff)
        else None
      | Some _ | None -> None

    let fill t view (pos : View.pos) =
      let a = View.addr view pos in
      let n, br, outs, _, _ = build view pos in
      if n > 0 then begin
        let i = index t a in
        t.slots <-
          (i, { start_addr = a; n; br; outs }) :: List.remove_assoc i t.slots
      end
  end

  (* Direction predictors of [Stc_fetch.Predictor]'s three kinds,
     re-derived: the 2-bit counters live in a persistent map (absent =
     the initial weakly-taken 2), the global history is a list of
     outcomes, most recent first, truncated to the history length and
     folded into an index only when one is needed. *)
  module Predictor = struct
    module Counters = Map.Make (Int)

    type t = {
      kind : Stc_fetch.Predictor.kind;
      mutable counters : int Counters.t;  (* table index -> counter *)
      mutable history : bool list;  (* most recent first *)
      mutable mispredictions : int;
    }

    let create kind =
      { kind; counters = Counters.empty; history = []; mispredictions = 0 }

    (* bit i of the history number is the outcome i branches back *)
    let history_number h =
      List.fold_left (fun (acc, w) b -> ((if b then acc + w else acc), 2 * w))
        (0, 1) h
      |> fst

    let slot t ~pc =
      match t.kind with
      | Stc_fetch.Predictor.Always_taken -> None
      | Stc_fetch.Predictor.Bimodal n -> Some (pc / 4 mod n)
      | Stc_fetch.Predictor.Gshare (n, _) ->
        (* gshare: the address xor the global history *)
        Some (((pc / 4) lxor history_number t.history) mod n)

    (* Predict the branch at [pc], train on [taken], and return whether
       the prediction was right. *)
    let predict t ~pc ~taken =
      let correct =
        match slot t ~pc with
        | None -> taken
        | Some i ->
          let c = Option.value (Counters.find_opt i t.counters) ~default:2 in
          let c' = if taken then min 3 (c + 1) else max 0 (c - 1) in
          t.counters <- Counters.add i c' t.counters;
          (match t.kind with
          | Stc_fetch.Predictor.Gshare (_, bits) ->
            t.history <- List.filteri (fun i _ -> i < bits) (taken :: t.history)
          | _ -> ());
          (c >= 2) = taken
      in
      if not correct then t.mispredictions <- t.mispredictions + 1;
      correct
  end

  type prediction = {
    kind : Stc_fetch.Predictor.kind;
    redirect_penalty : int;
  }

  (* The SEQ.3 cycle model of Section 7.1, re-derived from the paper:
     per cycle either a whole trace-cache trace, or instructions from
     the fetch address one at a time until a taken branch, the third
     branch, the end of the two-line window or the end of the stream.
     The engine takes whole blocks per inner step; supplying
     instruction-by-instruction must land on the same boundaries. *)
  let fetch ?(config = Engine.Config.default) ?icache ?trace_cache
      ?prediction ?on_access view =
    let line = config.Engine.Config.line_bytes in
    let max_branches = config.Engine.Config.max_branches in
    let miss_penalty = config.Engine.Config.miss_penalty in
    let len = View.length view in
    let cycles = ref 0 and penalties = ref 0 and instrs = ref 0 in
    let seq_cycles = ref 0 and tc_cycles = ref 0 in
    let cond_branches = ref 0 in
    let accs = ref 0 and misses = ref 0 and vhits = ref 0 in
    let lookups = ref 0 and tc_hits = ref 0 in
    (* Every executed conditional branch — a completed block whose
       terminator is conditional, whether a trace-cache hit or the
       sequential engine supplied it — is counted and, with a
       predictor, predicted at its own final instruction; a wrong
       direction costs the redirect penalty. *)
    let predictor =
      Option.map (fun p -> (Predictor.create p.kind, p.redirect_penalty))
        prediction
    in
    let resolve i =
      if View.is_cond view i then begin
        incr cond_branches;
        match predictor with
        | None -> ()
        | Some (p, redirect_penalty) ->
          let pc =
            View.block_addr view i + ((View.block_size view i - 1) * 4)
          in
          if not (Predictor.predict p ~pc ~taken:(View.taken view i)) then
            penalties := !penalties + redirect_penalty
      end
    in
    (* Decoupled-frontend reference model ([Stc_fetch.Fdip] re-derived):
       in-flight prefetches as an ordered (line, ready-cycle) association
       list, driven begin -> demand -> advance each cycle in the same
       order as the real engine. Live only with both an i-cache and an
       FDIP block in the config, exactly like the engine. *)
    let fdip =
      match (config.Engine.Config.fdip, icache) with
      | Some fc, Some c -> Some (fc, c)
      | _ -> None
    in
    let inflight = ref [] in
    let pf_issued = ref 0 and pf_completed = ref 0 in
    let pf_late = ref 0 and pf_useful = ref 0 in
    let fdip_begin now =
      match fdip with
      | None -> ()
      | Some (_, c) ->
        (* land elapsed prefetches in issue order *)
        let rec go acc = function
          | [] -> List.rev acc
          | (a, ready) :: tl ->
            if ready <= now then begin
              Icache.fill_prefetch c a;
              incr pf_completed;
              go acc tl
            end
            else go ((a, ready) :: acc) tl
        in
        inflight := go [] !inflight
    in
    (* One demand line probe under FDIP, returning its cycle charge. A
       line caught in flight lands now, counts as a (late) miss and is
       charged only the remaining latency, capped at the full penalty; a
       hit that consumes a prefetch mark was a useful prefetch. The
       [on_access] hook stays silent here by design: a lockstep
       [access] shadow cannot mirror prefetch installs. *)
    let fdip_demand c ~now a =
      incr accs;
      match List.assoc_opt a !inflight with
      | Some ready ->
        inflight := List.remove_assoc a !inflight;
        Icache.fill_prefetch c a;
        incr pf_completed;
        incr pf_late;
        ignore (Icache.demand c a);
        incr misses;
        let remain = ready - now in
        if remain <= 0 then 0
        else if remain > miss_penalty then miss_penalty
        else remain
      | None -> (
        match Icache.demand c a with
        | (Real_icache.Hit | Real_icache.Prefetch_hit), was_pref ->
          if was_pref then incr pf_useful;
          0
        | Real_icache.Victim_hit, _ ->
          incr vhits;
          0
        | Real_icache.Miss, _ ->
          incr misses;
          miss_penalty)
    in
    (* Walk the FTQ — the next [ftq_depth] fetch targets starting at the
       cycle-start block — issuing each target's SEQ.3 line pair under
       the degree and MSHR bounds, skipping resident and in-flight
       lines. *)
    let fdip_advance ~now start_idx =
      match fdip with
      | None -> ()
      | Some (fc, c) ->
        let budget = ref fc.Stc_fetch.Fdip.degree in
        let issue a =
          if
            !budget > 0
            && List.length !inflight < fc.Stc_fetch.Fdip.mshrs
            && (not (Icache.mem c a))
            && not (List.mem_assoc a !inflight)
          then begin
            inflight := !inflight @ [ (a, now + fc.Stc_fetch.Fdip.latency) ];
            incr pf_issued;
            decr budget
          end
        in
        let k = ref 0 and stop = ref false in
        while (not !stop) && !k < fc.Stc_fetch.Fdip.ftq_depth do
          let i = start_idx + !k in
          if i >= len then stop := true
          else begin
            let l0 = View.block_addr view i / line * line in
            issue l0;
            issue (l0 + line);
            incr k
          end
        done
    in
    let access a =
      match icache with
      | None -> true
      | Some c ->
        incr accs;
        let o = Icache.access c a in
        (match on_access with Some f -> f ~addr:a o | None -> ());
        (match o with
        | Real_icache.Hit | Real_icache.Prefetch_hit -> true
        | Real_icache.Victim_hit ->
          incr vhits;
          true
        | Real_icache.Miss ->
          incr misses;
          false)
    in
    let idx = ref 0 and off = ref 0 in
    while !idx < len do
      let pos = { View.idx = !idx; off = !off } in
      let start_idx = !idx in
      (* this iteration is fetch cycle !cycles + 1; elapsed prefetches
         land before anything else the cycle does, on both branches *)
      let fnow = !cycles + 1 in
      fdip_begin fnow;
      let hit =
        match trace_cache with
        | None -> None
        | Some tc ->
          incr lookups;
          let r = Tracecache.lookup tc view pos in
          (match r with Some _ -> incr tc_hits | None -> ());
          r
      in
      match hit with
      | Some (n, eidx, eoff) ->
        (* a trace-cache hit supplies the whole trace in one cycle;
           [fill] never stores empty traces, so n > 0 *)
        incr cycles;
        incr tc_cycles;
        instrs := !instrs + n;
        for i = !idx to eidx - 1 do
          resolve i
        done;
        idx := eidx;
        off := eoff;
        fdip_advance ~now:fnow start_idx
      | None ->
        (* sequential cycle: two consecutive lines, then supply *)
        incr cycles;
        incr seq_cycles;
        let a = View.addr view pos in
        let line_no = a / line in
        (match fdip with
        | Some (_, c) ->
          let c1 = fdip_demand c ~now:fnow (line_no * line) in
          let c2 = fdip_demand c ~now:fnow ((line_no + 1) * line) in
          penalties := !penalties + max c1 c2
        | None ->
          let h1 = access (line_no * line) in
          let h2 = access ((line_no + 1) * line) in
          if not (h1 && h2) then penalties := !penalties + miss_penalty);
        let window_end = (line_no + 2) * line in
        let branches = ref 0 in
        let stop = ref false in
        while not !stop do
          (* invariant: the instruction at (idx, off) exists and lies
             inside the window *)
          incr instrs;
          incr off;
          if !off < View.block_size view !idx then begin
            if View.addr view { View.idx = !idx; off = !off } >= window_end
            then stop := true
          end
          else begin
            let was_branch = View.has_branch view !idx in
            let taken = View.taken view !idx in
            if was_branch then incr branches;
            resolve !idx;
            incr idx;
            off := 0;
            if
              taken
              || (was_branch && !branches >= max_branches)
              || !idx >= len
            then stop := true
            else if View.addr view { View.idx = !idx; off = 0 } >= window_end
            then stop := true
          end
        done;
        (match trace_cache with
        | Some tc -> Tracecache.fill tc view pos
        | None -> ());
        fdip_advance ~now:fnow start_idx
    done;
    {
      Engine.instrs = !instrs;
      cycles = !cycles + !penalties;
      fetch_cycles = !cycles;
      seq_cycles = !seq_cycles;
      tc_cycles = !tc_cycles;
      icache_accesses = !accs;
      icache_misses = !misses;
      icache_victim_hits = !vhits;
      tc_lookups = !lookups;
      tc_hits = !tc_hits;
      taken_branches = View.taken_branches view;
      instrs_between_taken = View.instrs_between_taken view;
      cond_branches = !cond_branches;
      mispredictions =
        (match predictor with
        | Some (p, _) -> p.Predictor.mispredictions
        | None -> 0);
      icache_evictions =
        (match icache with Some c -> Icache.evictions c | None -> 0);
      prefetch_issued = !pf_issued;
      prefetch_completed = !pf_completed;
      prefetch_late = !pf_late;
      prefetch_useful = !pf_useful;
    }
end

(* ------------------------------------------------------------------ *)
(* Differential runners                                                *)
(* ------------------------------------------------------------------ *)

type case_policy = P_lru | P_srrip | P_trrip

type cache_case = {
  case_name : string;
  size_bytes : int;
  assoc : int;
  victim_lines : int;
  tc : bool;
  policy : case_policy;
  fdip : Stc_fetch.Fdip.config option;
  pred : Oracle.prediction option;
}

let default_cases =
  [
    {
      case_name = "8kb-direct";
      size_bytes = 8 * 1024;
      assoc = 1;
      victim_lines = 0;
      tc = false;
      policy = P_lru;
      fdip = None;
      pred = None;
    };
    {
      case_name = "8kb-victim16";
      size_bytes = 8 * 1024;
      assoc = 1;
      victim_lines = 16;
      tc = false;
      policy = P_lru;
      fdip = None;
      pred = None;
    };
    {
      case_name = "16kb-2way";
      size_bytes = 16 * 1024;
      assoc = 2;
      victim_lines = 0;
      tc = false;
      policy = P_lru;
      fdip = None;
      pred = None;
    };
    {
      case_name = "16kb-direct-tc";
      size_bytes = 16 * 1024;
      assoc = 1;
      victim_lines = 0;
      tc = true;
      policy = P_lru;
      fdip = None;
      pred = None;
    };
    {
      case_name = "ideal-tc";
      size_bytes = 0;
      assoc = 1;
      victim_lines = 0;
      tc = true;
      policy = P_lru;
      fdip = None;
      pred = None;
    };
    (* the edges of the engine's re-touch skip: one set, where it must
       not apply, and two, the smallest cache where it does, here with
       a victim buffer and trace-cache hits between probing cycles *)
    {
      case_name = "64b-2way";
      size_bytes = 64;
      assoc = 2;
      victim_lines = 0;
      tc = false;
      policy = P_lru;
      fdip = None;
      pred = None;
    };
    {
      case_name = "128b-2way-victim4-tc";
      size_bytes = 128;
      assoc = 2;
      victim_lines = 4;
      tc = true;
      policy = P_lru;
      fdip = None;
      pred = None;
    };
  ]

let extended_cases =
  let fd = Stc_fetch.Fdip.default in
  [
    {
      case_name = "16kb-4way-srrip";
      size_bytes = 16 * 1024;
      assoc = 4;
      victim_lines = 0;
      tc = false;
      policy = P_srrip;
      fdip = None;
      pred = None;
    };
    {
      case_name = "16kb-4way-trrip";
      size_bytes = 16 * 1024;
      assoc = 4;
      victim_lines = 0;
      tc = false;
      policy = P_trrip;
      fdip = None;
      pred = None;
    };
    {
      case_name = "8kb-direct-fdip";
      size_bytes = 8 * 1024;
      assoc = 1;
      victim_lines = 0;
      tc = false;
      policy = P_lru;
      fdip = Some fd;
      pred = None;
    };
    {
      case_name = "16kb-4way-trrip-fdip";
      size_bytes = 16 * 1024;
      assoc = 4;
      victim_lines = 0;
      tc = false;
      policy = P_trrip;
      fdip = Some fd;
      pred = None;
    };
    {
      case_name = "16kb-fdip-tc";
      size_bytes = 16 * 1024;
      assoc = 1;
      victim_lines = 0;
      tc = true;
      policy = P_lru;
      fdip = Some fd;
      pred = None;
    };
    {
      case_name = "16kb-bimodal";
      size_bytes = 16 * 1024;
      assoc = 1;
      victim_lines = 0;
      tc = false;
      policy = P_lru;
      fdip = None;
      pred =
        Some
          {
            Oracle.kind = Stc_fetch.Predictor.Bimodal 2048;
            redirect_penalty = 3;
          };
    };
    {
      case_name = "16kb-gshare-tc";
      size_bytes = 16 * 1024;
      assoc = 1;
      victim_lines = 0;
      tc = true;
      policy = P_lru;
      fdip = None;
      pred =
        Some
          {
            Oracle.kind = Stc_fetch.Predictor.Gshare (4096, 8);
            redirect_penalty = 3;
          };
    };
  ]

type mismatch = { field : string; m_oracle : float; m_engine : float }

type engine_report = {
  er_layout : string;
  er_case : string;
  er_mismatches : mismatch list;
  er_divergence : string option;
}

let outcome_name = function
  | Real_icache.Hit -> "hit"
  | Real_icache.Prefetch_hit -> "prefetch-hit"
  | Real_icache.Victim_hit -> "victim-hit"
  | Real_icache.Miss -> "miss"

let real_policy_of_case ~temperature case =
  match case.policy with
  | P_lru -> Real_icache.Lru
  | P_srrip -> Real_icache.Srrip
  | P_trrip -> Real_icache.Trrip temperature

let real_icache_of_case ?(temperature = [||]) ~line_bytes case () =
  if case.size_bytes = 0 then None
  else
    Some
      (Real_icache.create ~assoc:case.assoc ~line_bytes
         ~victim_lines:case.victim_lines
         ~policy:(real_policy_of_case ~temperature case)
         ~size_bytes:case.size_bytes ())

let real_tc_of_case case () = if case.tc then Some (Real_tc.create ()) else None

(* A fresh engine predictor of the case's kind; the oracle builds its
   own from the same [Oracle.prediction]. *)
let real_prediction_of_case case =
  Option.map
    (fun (p : Oracle.prediction) ->
      {
        Engine.pred = Stc_fetch.Predictor.create p.Oracle.kind;
        redirect_penalty = p.Oracle.redirect_penalty;
      })
    case.pred

(* The default engine config, with the case's FDIP block when it has
   one. *)
let case_config case =
  match case.fdip with
  | None -> Engine.Config.default
  | Some fc -> Engine.Config.make ~fdip:fc ()

let diff_cases ?(temperature = [||]) ~layout_name view cases =
  let cases = Array.of_list cases in
  (* one bank over the whole case list — mixed direct/victim/2-way
     geometries, replacement policies, FDIP frontends, predictors, trace
     caches and the ideal slot replay in a single sweep, exactly how
     Experiments fuses a grid's cells, so cohort sharing is checked too *)
  (* every cache, real, shadow and oracle, has the engine's line *)
  let line_bytes = Engine.Config.default.Engine.Config.line_bytes in
  let bank_specs =
    Array.map
      (fun case ->
        Engine.Bank.spec
          ~config:(case_config case)
          ?icache:(real_icache_of_case ~temperature ~line_bytes case ())
          ?trace_cache:(real_tc_of_case case ())
          ?prediction:(real_prediction_of_case case)
          ())
      cases
  in
  let engine = Engine.Bank.run_stream bank_specs (View.stream view) in
  Array.to_list
    (Array.mapi
       (fun i case ->
         (* lockstep shadow: every oracle i-cache access is replayed into
            a private real cache; the first differing outcome is where
            the two models' state forked. Under FDIP the oracle's demand
            path never fires the hook (a shadow driven by [access]
            cannot mirror prefetch installs), so those cases rely on the
            field comparison alone. *)
         let shadow = real_icache_of_case ~temperature ~line_bytes case () in
         let divergence = ref None in
         let access_no = ref 0 in
         let on_access ~addr out =
           incr access_no;
           match shadow with
           | None -> ()
           | Some c ->
             let got = Real_icache.access c addr in
             if got <> out && !divergence = None then
               divergence :=
                 Some
                   (Printf.sprintf
                      "access #%d (addr 0x%x): oracle %s, icache %s"
                      !access_no addr (outcome_name out) (outcome_name got))
         in
         let oracle_icache =
           if case.size_bytes = 0 then None
           else
             Some
               (Oracle.Icache.create ~assoc:case.assoc ~line_bytes
                  ~victim_lines:case.victim_lines
                  ~policy:(real_policy_of_case ~temperature case)
                  ~size_bytes:case.size_bytes ())
         in
         let oracle_tc =
           if case.tc then Some (Oracle.Tracecache.create ()) else None
         in
         let o =
           Oracle.fetch ~config:(case_config case) ?icache:oracle_icache
             ?trace_cache:oracle_tc ?prediction:case.pred ~on_access view
         in
         let er_mismatches =
           List.map2
             (fun (field, m_oracle) (_, m_engine) ->
               { field; m_oracle; m_engine })
             (Engine.result_fields o)
             (Engine.result_fields engine.(i))
           |> List.filter (fun m -> m.m_oracle <> m.m_engine)
         in
         {
           er_layout = layout_name;
           er_case = case.case_name;
           er_mismatches;
           er_divergence = !divergence;
         })
       cases)

(* One operation in eight is a prefetch fill on both models, so the
   mark handling FDIP relies on is compared access by access: a real
   [Prefetch_hit] must be exactly an oracle hit that consumed a mark. *)
let diff_icache_stream ?(accesses = 20_000) ?(policy = Real_icache.Lru) ~seed
    ~assoc ~victim_lines ~size_bytes () =
  let rng = Stc_util.Rng.create (Int64.of_int seed) in
  let real = Real_icache.create ~assoc ~victim_lines ~policy ~size_bytes () in
  let oracle =
    Oracle.Icache.create ~assoc ~victim_lines ~policy ~size_bytes ()
  in
  let divergence = ref None in
  let i = ref 0 in
  while !divergence = None && !i < accesses do
    incr i;
    let prefetch = Stc_util.Rng.int rng 8 = 0 in
    (* 4× the cache in address span keeps conflicts frequent *)
    let addr = Stc_util.Rng.int rng (size_bytes * 4) / 4 * 4 in
    let fail what ~oracle ~icache =
      divergence :=
        Some
          (Printf.sprintf "%s #%d (addr 0x%x): oracle %s, icache %s" what !i
             addr oracle icache)
    in
    if prefetch then begin
      Real_icache.fill_prefetch real addr;
      Oracle.Icache.fill_prefetch oracle addr
    end
    else begin
      let a = Real_icache.access real addr in
      let b =
        match Oracle.Icache.demand oracle addr with
        | Real_icache.Hit, true -> Real_icache.Prefetch_hit
        | o, _ -> o
      in
      if a <> b then
        fail "access" ~oracle:(outcome_name b) ~icache:(outcome_name a)
    end;
    let ea = Real_icache.evictions real
    and eb = Oracle.Icache.evictions oracle in
    if !divergence = None && ea <> eb then
      fail
        (if prefetch then "prefetch" else "access")
        ~oracle:(Printf.sprintf "%d evictions" eb)
        ~icache:(Printf.sprintf "%d evictions" ea)
  done;
  !divergence

(* ------------------------------------------------------------------ *)
(* The bundle                                                          *)
(* ------------------------------------------------------------------ *)

type layout_report = {
  lr_name : string;
  lr_violations : Layouts.violation list;
}

type report = {
  r_layouts : layout_report list;
  r_engines : engine_report list;
  r_icache : (string * string option) list;
}

let check_cache_bytes = 16 * 1024

let check_cfa_bytes = 4 * 1024

(* The [check.*] counters, then one [check.layout] event per layout and
   one [check.engine] event per engine case, in report order. *)
let publish reg r =
  let module Reg = Stc_obs.Registry in
  let total f l = List.fold_left (fun n x -> n + List.length (f x)) 0 l in
  Reg.add reg "check.layouts" (List.length r.r_layouts);
  Reg.add reg "check.violations" (total (fun l -> l.lr_violations) r.r_layouts);
  Reg.add reg "check.engine_cases" (List.length r.r_engines);
  Reg.add reg "check.engine_mismatches"
    (total (fun e -> e.er_mismatches) r.r_engines);
  List.iter
    (fun l ->
      Reg.event reg ~kind:"check.layout"
        [
          ("layout", Json.Str l.lr_name);
          ("violations", Json.Int (List.length l.lr_violations));
          ( "first",
            match l.lr_violations with
            | [] -> Json.Null
            | v :: _ -> Json.Str (Layouts.violation_to_string v) );
        ])
    r.r_layouts;
  List.iter
    (fun e ->
      Reg.event reg ~kind:"check.engine"
        [
          ("layout", Json.Str e.er_layout);
          ("case", Json.Str e.er_case);
          ("mismatches", Json.Int (List.length e.er_mismatches));
          ( "divergence",
            match e.er_divergence with
            | None -> Json.Null
            | Some d -> Json.Str d );
        ])
    r.r_engines

let run_all ?(ctx = Run.default) (pl : Pipeline.t) =
  Run.span ctx "check" @@ fun () ->
  let profile = pl.Pipeline.profile in
  let prog = pl.Pipeline.program in
  let params =
    Stc_core.Experiments.grid_params ~cache_bytes:check_cache_bytes
      ~cfa_bytes:check_cfa_bytes
  in
  (* every registered layout algorithm at the simulation grid's
     thresholds — a newly registered algorithm is validated here without
     touching this module *)
  let r_layouts =
    Run.span ctx "check-layouts" @@ fun () ->
    List.map
      (fun algo ->
        let plan = L.Algo.plan algo profile params in
        let cfa_bytes = L.Algo.effective_cfa_bytes algo params in
        let layout =
          Mapping.map_plan prog ~name:algo.L.Algo.name
            ~cache_bytes:check_cache_bytes ~cfa_bytes plan
        in
        {
          lr_name = algo.L.Algo.name;
          lr_violations =
            Layouts.all
              ~cfa_plan:(plan, check_cache_bytes, cfa_bytes)
              profile layout;
        })
      (L.Algo.all ())
  in
  (* engine differential on the test trace: the original baseline, the
     paper's headline CFA layout and the two imported comparators *)
  let r_engines =
    Run.span ctx "check-engines" @@ fun () ->
    let view_of name =
      match L.Algo.find name with
      | Error msg -> invalid_arg msg
      | Ok algo ->
        let layout = L.Algo.layout algo profile params in
        ( algo.L.Algo.name,
          layout,
          View.create prog layout (Pipeline.test_source pl) )
    in
    let views =
      List.map view_of [ "orig"; "ops"; "codestitcher"; "exttsp" ]
    in
    let sizes = Array.map Block.byte_size prog.Program.blocks in
    let counts = Profile.counts profile in
    List.concat_map
      (fun (layout_name, layout, view) ->
        (* the TRRIP cases seed their temperature table from this
           layout's own hotness, exactly as the extended grid does *)
        let temperature =
          Stc_cachesim.Temperature.of_blocks
            ~line_bytes:Engine.Config.default.Engine.Config.line_bytes
            ~addrs:layout.Layout.addr ~sizes ~counts
        in
        diff_cases ~temperature ~layout_name view
          (default_cases @ extended_cases))
      views
  in
  (* seeded random-address streams per geometry and policy *)
  let r_icache =
    Run.span ctx "check-icache-stream" @@ fun () ->
    let seed = Option.value ctx.Run.seed ~default:1 in
    (* a deterministic synthetic temperature table covering the whole
       4x address span used by the stream *)
    let trrip_temps kb = Array.init (kb * 1024 * 4 / 32) (fun i -> i mod 3) in
    List.map
      (fun (name, assoc, victim_lines, kb, policy) ->
        ( name,
          diff_icache_stream ~policy ~seed ~assoc ~victim_lines
            ~size_bytes:(kb * 1024) () ))
      [
        ("4kb-direct", 1, 0, 4, Real_icache.Lru);
        ("4kb-direct-victim4", 1, 4, 4, Real_icache.Lru);
        ("8kb-2way-victim8", 2, 8, 8, Real_icache.Lru);
        ("8kb-4way-srrip", 4, 0, 8, Real_icache.Srrip);
        ("8kb-4way-trrip", 4, 0, 8, Real_icache.Trrip (trrip_temps 8));
        ("4kb-2way-srrip-victim4", 2, 4, 4, Real_icache.Srrip);
      ]
  in
  let report = { r_layouts; r_engines; r_icache } in
  Option.iter (fun reg -> publish reg report) ctx.Run.metrics;
  report

let ok r =
  List.for_all (fun l -> l.lr_violations = []) r.r_layouts
  && List.for_all
       (fun e -> e.er_mismatches = [] && e.er_divergence = None)
       r.r_engines
  && List.for_all (fun (_, d) -> d = None) r.r_icache

let print_report r =
  Printf.printf "Layout validators:\n";
  List.iter
    (fun l ->
      match l.lr_violations with
      | [] -> Printf.printf "  %-6s ok\n" l.lr_name
      | vs ->
        Printf.printf "  %-6s %d violation(s)\n" l.lr_name (List.length vs);
        List.iter
          (fun v -> Printf.printf "    - %s\n" (Layouts.violation_to_string v))
          vs)
    r.r_layouts;
  Printf.printf "Engine differential (oracle vs engine):\n";
  List.iter
    (fun e ->
      if e.er_mismatches = [] && e.er_divergence = None then
        Printf.printf "  %-5s %-20s ok\n" e.er_layout e.er_case
      else begin
        Printf.printf "  %-5s %-20s FAIL\n" e.er_layout e.er_case;
        List.iter
          (fun m ->
            Printf.printf "    - %s: oracle %.6f, engine %.6f\n" m.field
              m.m_oracle m.m_engine)
          e.er_mismatches;
        match e.er_divergence with
        | Some d -> Printf.printf "    - first divergence: %s\n" d
        | None -> ()
      end)
    r.r_engines;
  Printf.printf "I-cache random-stream differential:\n";
  List.iter
    (fun (name, d) ->
      match d with
      | None -> Printf.printf "  %-18s ok\n" name
      | Some msg -> Printf.printf "  %-18s FAIL: %s\n" name msg)
    r.r_icache;
  Printf.printf "check: %s\n" (if ok r then "PASS" else "FAIL")
