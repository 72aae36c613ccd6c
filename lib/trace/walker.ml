module Program = Stc_cfg.Program

exception Desync of string

type frame = { code : Bytecode.t; mutable pc : int }

type t = {
  program : Program.t;
  code : Bytecode.t option array;
  names : (string, int) Hashtbl.t;
  rng : Stc_util.Rng.t;
  sink : int -> unit;
  mutable stack : frame list;
}

let create ~program ~code ~seed ~sink =
  let names = Hashtbl.create 256 in
  Array.iter
    (fun p -> Hashtbl.replace names p.Stc_cfg.Proc.name p.Stc_cfg.Proc.pid)
    program.Program.procs;
  {
    program;
    code;
    names;
    rng = Stc_util.Rng.create seed;
    sink;
    stack = [];
  }

let pid_of_name t name = Hashtbl.find t.names name


let reset t = t.stack <- []

let desync t fmt =
  Format.kasprintf
    (fun s ->
      let ctx =
        match t.stack with
        | [] -> "(no activation)"
        | f :: _ ->
          let p = t.program.Program.procs.(f.code.Bytecode.pid) in
          Printf.sprintf "in %s at pc %d" p.Stc_cfg.Proc.name f.pc
      in
      raise (Desync (s ^ " " ^ ctx)))
    fmt

let code_of t pid =
  match t.code.(pid) with
  | Some c -> c
  | None ->
    let p = t.program.Program.procs.(pid) in
    raise
      (Desync
         (Printf.sprintf "procedure %s (pid %d) has no bytecode"
            p.Stc_cfg.Proc.name pid))

(* Auto-walk a generated procedure: interpret its bytecode, sampling every
   decision site. [fuel] bounds the total number of ops executed in the
   whole auto activation tree; once exhausted, conditional sites take their
   [else] edge, which always leads forward to [Finish]. *)
let rec auto_walk t ~depth ~fuel pid =
  let code = code_of t pid in
  let ops = code.Bytecode.ops in
  let pc = ref 0 in
  let continue = ref true in
  while !continue do
    decr fuel;
    match ops.(!pc) with
    | Bytecode.Emit bid ->
      t.sink bid;
      incr pc
    | Bytecode.Goto { target } -> pc := target
    | Bytecode.Auto_call callee ->
      if depth > 64 then
        raise
          (Desync
             (Printf.sprintf
                "auto-walk depth limit exceeded in procedure %d (cyclic \
                 helper call graph?)"
                pid));
      auto_walk t ~depth:(depth + 1) ~fuel callee;
      incr pc
    | Bytecode.Expect_cond { p_true; then_pc; else_pc; _ } ->
      let take_true = !fuel > 0 && Stc_util.Rng.bernoulli t.rng p_true in
      pc := if take_true then then_pc else else_pc
    | Bytecode.Expect_enter { site; _ } ->
      raise
        (Desync
           (Printf.sprintf
              "auto-walked procedure %d has an engine-driven call site %S" pid
              site))
    | Bytecode.Finish -> continue := false
  done

(* Advance the top frame until it parks at an op that needs an event. *)
let rec advance t =
  match t.stack with
  | [] -> ()
  | frame :: _ ->
    let ops = frame.code.Bytecode.ops in
    (match ops.(frame.pc) with
    | Bytecode.Emit bid ->
      t.sink bid;
      frame.pc <- frame.pc + 1;
      advance t
    | Bytecode.Goto { target } ->
      frame.pc <- target;
      advance t
    | Bytecode.Auto_call callee ->
      auto_walk t ~depth:0 ~fuel:(ref 200_000) callee;
      frame.pc <- frame.pc + 1;
      advance t
    | Bytecode.Expect_cond _ | Bytecode.Expect_enter _ | Bytecode.Finish -> ())

let enter t pid =
  (match t.stack with
  | [] -> ()
  | frame :: _ -> (
    match frame.code.Bytecode.ops.(frame.pc) with
    | Bytecode.Expect_enter { site; callees } ->
      if not (Array.exists (fun c -> c = pid) callees) then
        desync t "entered procedure %d, not a declared target of site %S" pid
          site
    | _ -> desync t "unexpected enter of procedure %d" pid));
  let code = code_of t pid in
  t.stack <- { code; pc = 0 } :: t.stack;
  advance t

let cond t site v =
  match t.stack with
  | [] -> desync t "cond %S with no activation" site
  | frame :: _ -> (
    match frame.code.Bytecode.ops.(frame.pc) with
    | Bytecode.Expect_cond { site = expected; then_pc; else_pc; _ } ->
      if not (String.equal expected site) then
        desync t "cond site mismatch: got %S, expected %S" site expected;
      frame.pc <- (if v then then_pc else else_pc);
      advance t
    | _ -> desync t "unexpected cond %S" site)

let leave t =
  match t.stack with
  | [] -> desync t "leave with no activation"
  | frame :: rest -> (
    (match frame.code.Bytecode.ops.(frame.pc) with
    | Bytecode.Finish -> ()
    | _ -> desync t "leave before the routine reached its return block");
    t.stack <- rest;
    match rest with
    | [] -> ()
    | caller :: _ ->
      caller.pc <- caller.pc + 1;
      advance t)

let auto_run t pid =
  if t.stack <> [] then desync t "auto_run with active instrumented stack";
  auto_walk t ~depth:0 ~fuel:(ref 200_000) pid
