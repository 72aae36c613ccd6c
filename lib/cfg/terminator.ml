type t =
  | Fall of int
  | Jump of int
  | Cond of { taken : int; fallthru : int }
  | Call of { callee : int; next : int }
  | Icall of { callees : int array; next : int }
  | Ret

type kind = Fall_through | Branch | Subroutine_call | Subroutine_return

let kind = function
  | Fall _ -> Fall_through
  | Jump _ | Cond _ -> Branch
  | Call _ | Icall _ -> Subroutine_call
  | Ret -> Subroutine_return

let kind_name = function
  | Fall_through -> "Fall-through"
  | Branch -> "Branch"
  | Subroutine_call -> "Subroutine call"
  | Subroutine_return -> "Subroutine return"

let has_branch_instr = function Fall _ -> false | _ -> true

let intra_successors = function
  | Fall b | Jump b -> [ b ]
  | Cond { taken; fallthru } -> [ taken; fallthru ]
  | Call { next; _ } | Icall { next; _ } -> [ next ]
  | Ret -> []
