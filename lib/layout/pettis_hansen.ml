module Profile = Stc_profile.Profile
module Program = Stc_cfg.Program
module Proc = Stc_cfg.Proc
module Block = Stc_cfg.Block
module Terminator = Stc_cfg.Terminator

(* ---------- intra-procedure basic-block chaining ---------- *)

(* Weighted intra-procedure edges. Call blocks connect to their return
   continuation with the call block's own weight (the call comes back);
   other blocks use the observed transition counts. *)
let intra_edges profile p =
  let prog = Profile.program profile in
  let counts = Profile.counts profile in
  let edges = ref [] in
  Array.iter
    (fun bid ->
      if counts.(bid) > 0 then
        let blk = prog.Program.blocks.(bid) in
        match blk.Block.term with
        | Terminator.Call { next; _ } | Terminator.Icall { next; _ } ->
          edges := (bid, next, counts.(bid)) :: !edges
        | Terminator.Fall t | Terminator.Jump t ->
          let c = Profile.edge_count profile ~src:bid ~dst:t in
          if c > 0 then edges := (bid, t, c) :: !edges
        | Terminator.Cond { taken; fallthru } ->
          let ct = Profile.edge_count profile ~src:bid ~dst:taken in
          let cf = Profile.edge_count profile ~src:bid ~dst:fallthru in
          if ct > 0 then edges := (bid, taken, ct) :: !edges;
          if cf > 0 && fallthru <> taken then
            edges := (bid, fallthru, cf) :: !edges
        | Terminator.Ret -> ())
    p.Proc.blocks;
  List.sort
    (fun (a1, b1, c1) (a2, b2, c2) ->
      if c1 <> c2 then compare c2 c1 else compare (a1, b1) (a2, b2))
    !edges

(* Chains as doubly-linked structure emulated with maps: every block knows
   its chain id; every chain knows its blocks in order. *)
let chain_blocks profile p =
  let counts = Profile.counts (* weights *) profile in
  let hot = Array.to_list p.Proc.blocks |> List.filter (fun b -> counts.(b) > 0) in
  let fluff =
    Array.to_list p.Proc.blocks |> List.filter (fun b -> counts.(b) = 0)
  in
  let chain_of = Hashtbl.create 16 in
  let chains = Hashtbl.create 16 in
  List.iteri
    (fun i bid ->
      Hashtbl.replace chain_of bid i;
      Hashtbl.replace chains i [ bid ])
    hot;
  List.iter
    (fun (a, b, _w) ->
      match (Hashtbl.find_opt chain_of a, Hashtbl.find_opt chain_of b) with
      | Some ca, Some cb when ca <> cb ->
        let la = Hashtbl.find chains ca and lb = Hashtbl.find chains cb in
        (* merge only tail-of-ca with head-of-cb *)
        let tail_a = List.nth la (List.length la - 1) in
        let head_b = match lb with h :: _ -> h | [] -> assert false in
        if tail_a = a && head_b = b then begin
          let merged = la @ lb in
          Hashtbl.replace chains ca merged;
          Hashtbl.remove chains cb;
          List.iter (fun bid -> Hashtbl.replace chain_of bid ca) lb
        end
      | _ -> ())
    (intra_edges profile p);
  (* Order chains: the entry's chain first, the rest by total weight. *)
  let chain_list = Hashtbl.fold (fun _ l acc -> l :: acc) chains [] in
  let weight l = List.fold_left (fun acc b -> acc + counts.(b)) 0 l in
  let entry_chain, rest =
    List.partition (fun l -> List.mem p.Proc.entry l) chain_list
  in
  let rest =
    List.sort
      (fun l1 l2 ->
        let w1 = weight l1 and w2 = weight l2 in
        if w1 <> w2 then compare w2 w1 else compare l1 l2)
      rest
  in
  (List.concat (entry_chain @ rest), fluff)

let block_order_within profile ~pid =
  let prog = Profile.program profile in
  chain_blocks profile prog.Program.procs.(pid)

(* ---------- procedure ordering ("closest is best") ---------- *)

let proc_order profile =
  let prog = Profile.program profile in
  let np = Array.length prog.Program.procs in
  (* undirected call-graph weights *)
  let pair_weight = Hashtbl.create 256 in
  List.iter
    (fun (p, q, c) ->
      let key = (min p q, max p q) in
      let cur = Option.value ~default:0 (Hashtbl.find_opt pair_weight key) in
      Hashtbl.replace pair_weight key (cur + c))
    (Profile.call_edges profile);
  let edges =
    Hashtbl.fold (fun (p, q) c acc -> (p, q, c) :: acc) pair_weight []
    |> List.sort (fun (p1, q1, c1) (p2, q2, c2) ->
           if c1 <> c2 then compare c2 c1 else compare (p1, q1) (p2, q2))
  in
  let chain_of = Array.init np (fun i -> i) in
  let chains = Hashtbl.create 64 in
  for i = 0 to np - 1 do
    Hashtbl.replace chains i [ i ]
  done;
  let find_chain p = chain_of.(p) in
  let merge (u, v, _w) =
    let cu = find_chain u and cv = find_chain v in
    if cu <> cv then begin
      let lu = Hashtbl.find chains cu and lv = Hashtbl.find chains cv in
      (* Four orientations; pick the one bringing u and v closest. *)
      let dist l =
        let arr = Array.of_list l in
        let iu = ref 0 and iv = ref 0 in
        Array.iteri
          (fun i p ->
            if p = u then iu := i;
            if p = v then iv := i)
          arr;
        abs (!iu - !iv)
      in
      let candidates =
        [
          lu @ lv;
          lu @ List.rev lv;
          List.rev lu @ lv;
          List.rev lu @ List.rev lv;
        ]
      in
      let best =
        List.fold_left
          (fun acc cand ->
            match acc with
            | None -> Some (cand, dist cand)
            | Some (_, d) ->
              let d' = dist cand in
              if d' < d then Some (cand, d') else acc)
          None candidates
      in
      let merged = match best with Some (l, _) -> l | None -> assert false in
      Hashtbl.replace chains cu merged;
      Hashtbl.remove chains cv;
      List.iter (fun p -> chain_of.(p) <- cu) lv
    end
  in
  List.iter merge edges;
  (* Executed chains by weight, then never-called procedures in original
     order. *)
  let counts pid = Profile.proc_entry_count profile pid in
  let chain_list = Hashtbl.fold (fun _ l acc -> l :: acc) chains [] in
  let weight l = List.fold_left (fun acc p -> acc + counts p) 0 l in
  let hot, cold =
    List.partition (fun l -> weight l > 0) chain_list
  in
  let hot =
    List.sort
      (fun l1 l2 ->
        let w1 = weight l1 and w2 = weight l2 in
        if w1 <> w2 then compare w2 w1 else compare l1 l2)
      hot
  in
  let cold =
    List.sort compare (List.concat cold) |> List.map (fun p -> [ p ])
  in
  Array.of_list (List.concat (hot @ cold))

(* ---------- full layout ---------- *)

let hot_and_fluff profile =
  let prog = Profile.program profile in
  let order = proc_order profile in
  let hot_blocks = ref [] and fluff_blocks = ref [] in
  Array.iter
    (fun pid ->
      let hot, fluff = chain_blocks profile prog.Program.procs.(pid) in
      hot_blocks := List.rev_append hot !hot_blocks;
      fluff_blocks := List.rev_append fluff !fluff_blocks)
    order;
  (List.rev !hot_blocks, List.rev !fluff_blocks)

let plan profile =
  let hot, fluff = hot_and_fluff profile in
  { Mapping.cfa_seqs = []; other_seqs = [ hot ]; cold = fluff }
