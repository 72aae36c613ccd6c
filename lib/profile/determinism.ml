module Terminator = Stc_cfg.Terminator
module Block = Stc_cfg.Block
module Program = Stc_cfg.Program

type row = {
  kind : Terminator.kind;
  static_pct : float;
  dynamic_pct : float;
  predictable_pct : float;
}

type t = { rows : row list; overall_predictable_pct : float }

let kinds =
  [
    Terminator.Fall_through;
    Terminator.Branch;
    Terminator.Subroutine_call;
    Terminator.Subroutine_return;
  ]

let index_of_kind = function
  | Terminator.Fall_through -> 0
  | Terminator.Branch -> 1
  | Terminator.Subroutine_call -> 2
  | Terminator.Subroutine_return -> 3

(* A block behaves in a fixed way when one successor takes this share of
   its out-transitions. *)
let threshold = 0.9

let compute p =
  let prog = Profile.program p in
  let counts = Profile.counts p in
  let static = Array.make 4 0 in
  let dynamic = Array.make 4 0 in
  let fixed_dynamic = Array.make 4 0 in
  Array.iteri
    (fun bid c ->
      if c > 0 then begin
        let blk = prog.Program.blocks.(bid) in
        let k = index_of_kind (Block.kind blk) in
        static.(k) <- static.(k) + 1;
        dynamic.(k) <- dynamic.(k) + c;
        let fixed =
          match blk.Block.term with
          | Terminator.Fall _ | Terminator.Jump _ | Terminator.Call _ ->
            (* single possible target *)
            true
          | Terminator.Ret ->
            (* a return-address stack always knows the target *)
            true
          | Terminator.Cond _ | Terminator.Icall _ -> (
            match Profile.successors p bid with
            | [] -> true
            | (_, top) :: _ as succs ->
              let total =
                List.fold_left (fun acc (_, c') -> acc + c') 0 succs
              in
              float_of_int top >= threshold *. float_of_int total)
        in
        if fixed then fixed_dynamic.(k) <- fixed_dynamic.(k) + c
      end)
    counts;
  let static_total = Array.fold_left ( + ) 0 static in
  let dynamic_total = Array.fold_left ( + ) 0 dynamic in
  let pct part whole =
    if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
  in
  let rows =
    List.map
      (fun kind ->
        let k = index_of_kind kind in
        {
          kind;
          static_pct = pct static.(k) static_total;
          dynamic_pct = pct dynamic.(k) dynamic_total;
          predictable_pct = pct fixed_dynamic.(k) dynamic.(k);
        })
      kinds
  in
  {
    rows;
    overall_predictable_pct =
      pct (Array.fold_left ( + ) 0 fixed_dynamic) dynamic_total;
  }
