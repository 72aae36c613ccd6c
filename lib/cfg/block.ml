type t = { id : int; proc : int; size : int; term : Terminator.t }

let instr_bytes = 4

let byte_size b = b.size * instr_bytes

let kind b = Terminator.kind b.term
