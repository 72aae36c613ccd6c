type pending_proc = {
  name : string;
  subsystem : Proc.subsystem;
  mutable body : (int * int array) option; (* entry, blocks *)
}

type pending_block = {
  owner : int;
  mutable size : int;
  mutable term : Terminator.t;
}

type t = {
  mutable procs : pending_proc array;
  mutable n_procs : int;
  mutable blocks : pending_block array;
  mutable n_blocks : int;
  names : (string, int) Hashtbl.t;
}

let dummy_proc = { name = ""; subsystem = Proc.Other; body = None }

let dummy_block = { owner = -1; size = 1; term = Terminator.Ret }

let create () =
  {
    procs = Array.make 64 dummy_proc;
    n_procs = 0;
    blocks = Array.make 256 dummy_block;
    n_blocks = 0;
    names = Hashtbl.create 64;
  }

let push_proc t p =
  if t.n_procs = Array.length t.procs then begin
    let a = Array.make (2 * t.n_procs) dummy_proc in
    Array.blit t.procs 0 a 0 t.n_procs;
    t.procs <- a
  end;
  t.procs.(t.n_procs) <- p;
  t.n_procs <- t.n_procs + 1;
  t.n_procs - 1

let push_block t b =
  if t.n_blocks = Array.length t.blocks then begin
    let a = Array.make (2 * t.n_blocks) dummy_block in
    Array.blit t.blocks 0 a 0 t.n_blocks;
    t.blocks <- a
  end;
  t.blocks.(t.n_blocks) <- b;
  t.n_blocks <- t.n_blocks + 1;
  t.n_blocks - 1

let declare_proc t ~name ~subsystem =
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "Builder.declare_proc: duplicate %S" name);
  let pid = push_proc t { name; subsystem; body = None } in
  Hashtbl.replace t.names name pid;
  pid

let pid_of_name t name = Hashtbl.find t.names name

let new_block t ~pid ~size =
  if pid < 0 || pid >= t.n_procs then invalid_arg "Builder.new_block: bad pid";
  push_block t { owner = pid; size; term = Terminator.Ret }

let set_term t bid term =
  if bid < 0 || bid >= t.n_blocks then invalid_arg "Builder.set_term: bad id";
  t.blocks.(bid).term <- term

let set_size t bid size =
  if bid < 0 || bid >= t.n_blocks then invalid_arg "Builder.set_size: bad id";
  t.blocks.(bid).size <- size

let finish_proc t ~pid ~entry ~blocks =
  let p = t.procs.(pid) in
  (match p.body with
  | Some _ ->
    invalid_arg (Printf.sprintf "Builder.finish_proc: %S already finished" p.name)
  | None -> ());
  if Array.length blocks = 0 || blocks.(0) <> entry then
    invalid_arg "Builder.finish_proc: entry must be the first block";
  Array.iter
    (fun bid ->
      if t.blocks.(bid).owner <> pid then
        invalid_arg "Builder.finish_proc: block owned by another procedure")
    blocks;
  p.body <- Some (entry, blocks)

let build t =
  let procs =
    Array.init t.n_procs (fun pid ->
        let p = t.procs.(pid) in
        match p.body with
        | None -> failwith (Printf.sprintf "Builder.build: %S never finished" p.name)
        | Some (entry, blocks) ->
          { Proc.pid; name = p.name; subsystem = p.subsystem; entry; blocks })
  in
  let blocks =
    Array.init t.n_blocks (fun bid ->
        let b = t.blocks.(bid) in
        { Block.id = bid; proc = b.owner; size = b.size; term = b.term })
  in
  let program = { Program.procs; blocks } in
  match Program.validate program with
  | Ok () -> program
  | Error msg -> failwith ("Builder.build: invalid program: " ^ msg)
