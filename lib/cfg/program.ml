type t = { procs : Proc.t array; blocks : Block.t array }

type static_counts = { n_procs : int; n_blocks : int; n_instrs : int }

let static_counts t =
  {
    n_procs = Array.length t.procs;
    n_blocks = Array.length t.blocks;
    n_instrs = Array.fold_left (fun acc b -> acc + b.Block.size) 0 t.blocks;
  }

let proc_of_block t bid = t.procs.(t.blocks.(bid).Block.proc)

let validate t =
  let nb = Array.length t.blocks and np = Array.length t.procs in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  let check_block_id ctx bid =
    if bid < 0 || bid >= nb then fail "%s: block id %d out of range" ctx bid
  in
  let check_proc_id ctx pid =
    if pid < 0 || pid >= np then fail "%s: proc id %d out of range" ctx pid
  in
  try
    (* block table consistency *)
    Array.iteri
      (fun i b ->
        if b.Block.id <> i then fail "block at index %d has id %d" i b.Block.id;
        if b.Block.size < 1 then fail "block %d has size %d" i b.Block.size;
        check_proc_id (Printf.sprintf "block %d owner" i) b.Block.proc;
        List.iter
          (fun s -> check_block_id (Printf.sprintf "block %d successor" i) s)
          (Terminator.intra_successors b.Block.term);
        match b.Block.term with
        | Terminator.Call { callee; _ } ->
          check_proc_id (Printf.sprintf "block %d callee" i) callee
        | Terminator.Icall { callees; _ } ->
          if Array.length callees = 0 then fail "block %d: empty icall" i;
          Array.iter
            (check_proc_id (Printf.sprintf "block %d icall callee" i))
            callees
        | Terminator.Fall _ | Terminator.Jump _ | Terminator.Cond _
        | Terminator.Ret ->
          ())
      t.blocks;
    (* proc table consistency and unique ownership *)
    let owner = Array.make nb (-1) in
    Array.iteri
      (fun i p ->
        if p.Proc.pid <> i then fail "proc at index %d has pid %d" i p.Proc.pid;
        if Array.length p.Proc.blocks = 0 then fail "proc %d has no blocks" i;
        if p.Proc.blocks.(0) <> p.Proc.entry then
          fail "proc %d: entry %d is not its first block" i p.Proc.entry;
        Array.iter
          (fun bid ->
            check_block_id (Printf.sprintf "proc %d block list" i) bid;
            if owner.(bid) <> -1 then
              fail "block %d owned by both proc %d and proc %d" bid owner.(bid)
                i;
            owner.(bid) <- i;
            if t.blocks.(bid).Block.proc <> i then
              fail "block %d listed in proc %d but records owner %d" bid i
                t.blocks.(bid).Block.proc)
          p.Proc.blocks)
      t.procs;
    Array.iteri
      (fun bid o -> if o = -1 then fail "block %d owned by no procedure" bid)
      owner;
    (* intra-procedure edges stay inside; reachability from entry *)
    Array.iter
      (fun p ->
        let pid = p.Proc.pid in
        let member = Hashtbl.create 16 in
        Array.iter (fun bid -> Hashtbl.replace member bid ()) p.Proc.blocks;
        Array.iter
          (fun bid ->
            List.iter
              (fun s ->
                if not (Hashtbl.mem member s) then
                  fail "proc %d: edge %d -> %d leaves the procedure" pid bid s)
              (Terminator.intra_successors t.blocks.(bid).Block.term))
          p.Proc.blocks;
        let seen = Hashtbl.create 16 in
        let rec dfs bid =
          if not (Hashtbl.mem seen bid) then begin
            Hashtbl.replace seen bid ();
            List.iter dfs
              (Terminator.intra_successors t.blocks.(bid).Block.term)
          end
        in
        dfs p.Proc.entry;
        Array.iter
          (fun bid ->
            if not (Hashtbl.mem seen bid) then
              fail "proc %d (%s): block %d unreachable from entry" pid
                p.Proc.name bid)
          p.Proc.blocks)
      t.procs;
    Ok ()
  with Bad msg -> err "%s" msg
