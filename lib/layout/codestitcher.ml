module Profile = Stc_profile.Profile
module Program = Stc_cfg.Program
module Block = Stc_cfg.Block

(* Codestitcher-style hierarchical basic-block collocation (Lavaee,
   Criswell & Ding, "Codestitcher: inter-procedural basic block layout",
   CC 2019), adapted to this reproduction's plan/mapping split.

   The key idea is {e distance-sensitive} collocation: merging two code
   chains only pays off while the merged chain still fits inside the
   locality granule being optimized, so the merge proceeds in levels —
   first within a cache line, then within a page — before the hottest
   chains are pinned into the Conflict-Free Area (the CFA plays the role
   of Codestitcher's innermost "free" layer here). All chain building is
   inter-procedural from the start: the profile's edges are trace
   adjacencies, so a call-heavy DSS kernel stitches callers and callees
   together exactly as the original algorithm stitches functions. *)

let line_bytes = 64

let page_bytes = 4096

type chain = {
  mutable blocks : int list;  (* placement order *)
  mutable last : int;  (* last block, for O(1) tail checks *)
  mutable bytes : int;
  mutable weight : int;
  mutable anchor : int;  (* smallest block id ever merged in: tie-break *)
}

(* Chains keyed by a representative root; [chain_of] maps a block to its
   chain's current root. Roots are block ids, so everything is
   deterministic given a deterministic merge order. *)
type state = {
  chain_of : int array;
  chains : (int, chain) Hashtbl.t;
}

(* All profiled transitions between distinct executed blocks, heaviest
   first; ties broken on (src, dst) so the order is independent of the
   profile's internal hash-table iteration order. *)
let sorted_edges profile =
  let counts = Profile.counts profile in
  let edges = ref [] in
  Profile.iter_edges profile (fun ~src ~dst ~count ->
      if count > 0 && src <> dst && counts.(src) > 0 && counts.(dst) > 0 then
        edges := (src, dst, count) :: !edges);
  List.sort
    (fun (s1, d1, c1) (s2, d2, c2) ->
      if c1 <> c2 then compare c2 c1 else compare (s1, d1) (s2, d2))
    !edges

let init_state profile =
  let prog = Profile.program profile in
  let counts = Profile.counts profile in
  let n = Array.length prog.Program.blocks in
  let st = { chain_of = Array.make n (-1); chains = Hashtbl.create 256 } in
  Array.iteri
    (fun b c ->
      if c > 0 then begin
        st.chain_of.(b) <- b;
        Hashtbl.replace st.chains b
          {
            blocks = [ b ];
            last = b;
            bytes = Block.byte_size prog.Program.blocks.(b);
            weight = c;
            anchor = b;
          }
      end)
    counts;
  st

let merge_chains st ~into:ra rb =
  let a = Hashtbl.find st.chains ra and b = Hashtbl.find st.chains rb in
  a.blocks <- a.blocks @ b.blocks;
  a.last <- b.last;
  a.bytes <- a.bytes + b.bytes;
  a.weight <- a.weight + b.weight;
  a.anchor <- min a.anchor b.anchor;
  List.iter (fun blk -> st.chain_of.(blk) <- ra) b.blocks;
  Hashtbl.remove st.chains rb

(* Level 0: strict fallthrough stitching. Merge tail-to-head along the
   hottest transitions while the result stays within one cache line, so
   the most frequent successor pairs share a line fetch. *)
let stitch_lines st edges =
  List.iter
    (fun (src, dst, _w) ->
      let ra = st.chain_of.(src) and rb = st.chain_of.(dst) in
      if ra >= 0 && rb >= 0 && ra <> rb then begin
        let a = Hashtbl.find st.chains ra and b = Hashtbl.find st.chains rb in
        if
          a.last = src
          && (match b.blocks with h :: _ -> h = dst | [] -> false)
          && a.bytes + b.bytes <= line_bytes
        then merge_chains st ~into:ra rb
      end)
    edges

(* Coarser levels: collocation no longer requires fallthrough adjacency —
   any profiled affinity between two chains justifies packing them into
   the same granule. Affinities are aggregated per chain pair once per
   level, then consumed heaviest-first (greedy, like the original's
   per-layer maximum-weight matching relaxed to a sweep). *)
let stitch_level st edges ~granule =
  let pair_weight = Hashtbl.create 256 in
  List.iter
    (fun (src, dst, w) ->
      let ra = st.chain_of.(src) and rb = st.chain_of.(dst) in
      if ra >= 0 && rb >= 0 && ra <> rb then begin
        let key = (min ra rb, max ra rb) in
        let cur = Option.value ~default:0 (Hashtbl.find_opt pair_weight key) in
        (* remember the dominant direction so the merged order follows
           the control flow: positive means (fst -> snd) is heavier *)
        let dir = if fst key = ra then w else -w in
        Hashtbl.replace pair_weight key (cur + dir)
      end)
    edges;
  let pairs =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) pair_weight []
    |> List.sort (fun ((a1, b1), w1) ((a2, b2), w2) ->
           let m1 = abs w1 and m2 = abs w2 in
           if m1 <> m2 then compare m2 m1 else compare (a1, b1) (a2, b2))
  in
  List.iter
    (fun ((ra, rb), dir) ->
      (* the recorded roots may have been merged away earlier this sweep *)
      let ra = if Hashtbl.mem st.chains ra then ra else -1
      and rb = if Hashtbl.mem st.chains rb then rb else -1 in
      if ra >= 0 && rb >= 0 && ra <> rb then begin
        let a = Hashtbl.find st.chains ra and b = Hashtbl.find st.chains rb in
        if a.bytes + b.bytes <= granule then
          if dir >= 0 then merge_chains st ~into:ra rb
          else merge_chains st ~into:rb ra
      end)
    pairs

(* Hot chains in execution-weight order (density would starve long hot
   chains out of the CFA prefix; the paper's own CFA fill is
   popularity-ordered whole sequences, which this mirrors). *)
let ordered_chains st =
  Hashtbl.fold (fun _ c acc -> c :: acc) st.chains []
  |> List.sort (fun c1 c2 ->
         if c1.weight <> c2.weight then compare c2.weight c1.weight
         else compare c1.anchor c2.anchor)
  |> List.map (fun c -> c.blocks)

(* The hierarchical merge depends only on the profile, not on the CFA
   budget, and the simulation grid asks for one plan per (cache, CFA)
   point — memoize the chains for the profile last seen. Layout
   construction runs in the grid's serial prefix, so a single slot
   without locking is enough. *)
let memo : (Profile.t * int list list) option ref = ref None

let chains profile =
  match !memo with
  | Some (p, chains) when p == profile -> chains
  | _ ->
    let st = init_state profile in
    let edges = sorted_edges profile in
    stitch_lines st edges;
    stitch_level st edges ~granule:page_bytes;
    let result = ordered_chains st in
    memo := Some (profile, result);
    result

let plan profile ~cfa_bytes =
  Mapping.plan_of_chains profile ~cfa_bytes (chains profile)
