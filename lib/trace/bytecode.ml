module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator

type cond_site = {
  site : string;
  p_true : float;
  mutable then_pc : int;
  mutable else_pc : int;
}

type goto = { mutable target : int }

type op =
  | Emit of int
  | Expect_cond of cond_site
  | Expect_enter of { site : string; callees : int array }
  | Auto_call of int
  | Goto of goto
  | Finish

type t = { pid : int; ops : op array }

(* Compilation state. Blocks are allocated lazily: [cur] is the id of the
   block currently being appended to, [cur_size] its instruction count so
   far. Terminators of closed blocks may need forward targets, so closing a
   block returns a setter invoked once the target block exists. *)
type state = {
  builder : Builder.t;
  pid : int;
  mutable ops_rev : op list;
  mutable n_ops : int;
  mutable cur : int option;
  mutable cur_size : int;
  mutable blocks_rev : int list; (* textual order, reversed *)
  mutable cold_rev : int list;
      (* blocks of unlikely arms, deferred to the end of the procedure
         (compilers place error paths out of line) *)
  mutable terminated : bool;
}

let push st op =
  st.ops_rev <- op :: st.ops_rev;
  st.n_ops <- st.n_ops + 1;
  st.n_ops - 1

let open_block st =
  match st.cur with
  | Some bid -> bid
  | None ->
    let bid = Builder.new_block st.builder ~pid:st.pid ~size:1 in
    st.blocks_rev <- bid :: st.blocks_rev;
    ignore (push st (Emit bid));
    st.cur <- Some bid;
    st.cur_size <- 0;
    st.terminated <- false;
    bid

let add_size st n =
  ignore (open_block st);
  st.cur_size <- st.cur_size + n

(* Close the current block; its terminator is supplied later through the
   returned setter (targets are often forward references). *)
let close_block st =
  let bid = open_block st in
  Builder.set_size st.builder bid (max 1 st.cur_size);
  st.cur <- None;
  st.cur_size <- 0;
  fun term -> Builder.set_term st.builder bid term

let check_not_terminated st what =
  if st.terminated then
    invalid_arg
      (Printf.sprintf "Bytecode.compile: %s after a returning construct" what)

let rec compile_stmt st resolve (stmt : Skeleton.stmt) =
  match stmt with
  | Skeleton.Straight n ->
    check_not_terminated st "straight-line code";
    add_size st n
  | Skeleton.Return ->
    check_not_terminated st "return";
    add_size st 1;
    let set = close_block st in
    set Terminator.Ret;
    ignore (push st Finish);
    st.terminated <- true
  | Skeleton.Call name ->
    check_not_terminated st "call";
    compile_call st ~site:name ~callees:[| resolve name |] ~auto:false
  | Skeleton.Icall { site; targets } ->
    check_not_terminated st "icall";
    if targets = [] then invalid_arg "Bytecode.compile: icall with no targets";
    compile_call st ~site ~callees:(Array.of_list (List.map resolve targets))
      ~auto:false
  | Skeleton.Helper name ->
    check_not_terminated st "helper call";
    compile_call st ~site:name ~callees:[| resolve name |] ~auto:true
  | Skeleton.If { site; p_true; then_; else_ } ->
    check_not_terminated st "if";
    add_size st 1;
    let set_cond = close_block st in
    let ec = { site; p_true; then_pc = -1; else_pc = -1 } in
    ignore (push st (Expect_cond ec));
    let patch_cond ~then_pc ~else_pc =
      ec.then_pc <- then_pc;
      ec.else_pc <- else_pc
    in
    let has_else = else_ <> [] in
    (* An unlikely then-arm with no else is placed out of line at the end
       of the procedure (the error-path layout real compilers produce):
       the branch is taken into the arm and the common path falls through
       to the join. *)
    let unlikely =
      (not has_else) && (not (Float.is_nan p_true)) && p_true < 0.45
    in
    let arm_watermark = match st.blocks_rev with [] -> -1 | b :: _ -> b in
    (* then arm; if there is an else (or the arm is moved out of line) it
       must be jumped over / jump back *)
    let then_pc = st.n_ops in
    let then_entry = open_block st in
    compile_stmts st resolve then_;
    let then_terminated = st.terminated in
    let then_goto =
      if then_terminated then None
      else begin
        if has_else || unlikely then add_size st 1;
        let set = close_block st in
        let g = { target = -1 } in
        ignore (push st (Goto g));
        Some (set, g)
      end
    in
    (if unlikely then begin
       (* move the arm's blocks to the cold tail of the procedure *)
       let arm, hot =
         List.partition (fun b -> b > arm_watermark) st.blocks_rev
       in
       st.blocks_rev <- hot;
       st.cold_rev <- arm @ st.cold_rev
     end);
    (* else arm (may be absent) *)
    let else_info =
      match else_ with
      | [] -> None
      | _ ->
        let else_pc = st.n_ops in
        st.terminated <- false;
        let else_entry = open_block st in
        compile_stmts st resolve else_;
        let else_terminated = st.terminated in
        let else_goto =
          if else_terminated then None
          else begin
            let set = close_block st in
            let g = { target = -1 } in
            ignore (push st (Goto g));
            Some (set, g)
          end
        in
        Some (else_pc, else_entry, else_goto, else_terminated)
    in
    st.terminated <- false;
    (match else_info with
    | None ->
      (* No else: the not-entered side of the branch is the join block. *)
      let join_pc = st.n_ops in
      let join = open_block st in
      patch_cond ~then_pc ~else_pc:join_pc;
      (match then_goto with
      | Some (set, g) ->
        set (if unlikely then Terminator.Jump join else Terminator.Fall join);
        g.target <- join_pc
      | None -> ());
      if unlikely then
        set_cond (Terminator.Cond { taken = then_entry; fallthru = join })
      else set_cond (Terminator.Cond { taken = join; fallthru = then_entry })
    | Some (else_pc, else_entry, else_goto, else_terminated) ->
      set_cond (Terminator.Cond { taken = else_entry; fallthru = then_entry });
      patch_cond ~then_pc ~else_pc;
      if then_terminated && else_terminated then st.terminated <- true
      else begin
        let join_pc = st.n_ops in
        let join = open_block st in
        (match then_goto with
        | Some (set, g) ->
          set (Terminator.Jump join);
          g.target <- join_pc
        | None -> ());
        match else_goto with
        | Some (set, g) ->
          set (Terminator.Fall join);
          g.target <- join_pc
        | None -> ()
      end)
  | Skeleton.While { site; p_true; body } ->
    check_not_terminated st "while";
    (* Rotated loop (the guarded do-while an optimizing compiler emits):
       a duplicated entry test falls through into the body, and the test
       at the bottom branches back while the loop continues — a
       one-iteration loop executes no taken branch at all. *)
    add_size st 1;
    let set_pre = close_block st in
    let ec_pre = { site; p_true; then_pc = -1; else_pc = -1 } in
    ignore (push st (Expect_cond ec_pre));
    let body_pc = st.n_ops in
    let body_entry = open_block st in
    compile_stmts st resolve body;
    let bottom_terminated = st.terminated in
    let ec_bottom = { site; p_true; then_pc = body_pc; else_pc = -1 } in
    let set_bottom =
      if bottom_terminated then None
      else begin
        add_size st 1;
        let set = close_block st in
        ignore (push st (Expect_cond ec_bottom));
        Some set
      end
    in
    st.terminated <- false;
    let exit_pc = st.n_ops in
    let exit = open_block st in
    set_pre (Terminator.Cond { taken = exit; fallthru = body_entry });
    ec_pre.then_pc <- body_pc;
    ec_pre.else_pc <- exit_pc;
    (match set_bottom with
    | Some set ->
      set (Terminator.Cond { taken = body_entry; fallthru = exit });
      ec_bottom.else_pc <- exit_pc
    | None -> ())

and compile_call st ~site ~callees ~auto =
  add_size st 1;
  let set = close_block st in
  if auto then begin
    assert (Array.length callees = 1);
    ignore (push st (Auto_call callees.(0)))
  end
  else ignore (push st (Expect_enter { site; callees }));
  let cont = open_block st in
  set
    (if Array.length callees = 1 then
       Terminator.Call { callee = callees.(0); next = cont }
     else Terminator.Icall { callees; next = cont })

and compile_stmts st resolve stmts =
  List.iter (compile_stmt st resolve) stmts

let compile builder ~pid ~resolve (skel : Skeleton.t) =
  let st =
    {
      builder;
      pid;
      ops_rev = [];
      n_ops = 0;
      cur = None;
      cur_size = 0;
      blocks_rev = [];
      cold_rev = [];
      terminated = false;
    }
  in
  let entry = open_block st in
  compile_stmts st resolve skel;
  if not st.terminated then begin
    add_size st 1;
    let set = close_block st in
    set Terminator.Ret;
    ignore (push st Finish)
  end;
  let ops = Array.of_list (List.rev st.ops_rev) in
  let blocks =
    Array.of_list (List.rev st.blocks_rev @ List.rev st.cold_rev)
  in
  Builder.finish_proc builder ~pid ~entry ~blocks;
  { pid; ops }
