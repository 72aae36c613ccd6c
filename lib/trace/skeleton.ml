type stmt =
  | Straight of int
  | If of { site : string; p_true : float; then_ : stmt list; else_ : stmt list }
  | While of { site : string; p_true : float; body : stmt list }
  | Call of string
  | Icall of { site : string; targets : string list }
  | Helper of string
  | Return

type t = stmt list

let straight n = Straight n

let if_ ?(p = nan) site then_ = If { site; p_true = p; then_; else_ = [] }

let if_else ?(p = nan) site then_ else_ = If { site; p_true = p; then_; else_ }

let while_ ?(p = nan) site body = While { site; p_true = p; body }

let call name = Call name

let icall site targets = Icall { site; targets }

let helper name = Helper name

let return = Return
