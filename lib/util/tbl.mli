(** Plain-text table rendering for the experiment harness, so that
    [stc_repro] prints rows directly comparable to the paper's
    tables. *)

type align = Left | Right

type t

val create : headers:(string * align) list -> t
(** A table with the given column headers and per-column alignment. *)

val add_row : t -> string list -> unit
(** Append a row; must have exactly as many cells as there are headers. *)

val add_rule : t -> unit
(** Append a horizontal rule. *)

val render : t -> string
(** Render with column widths fitted to contents. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

val fpct : float -> string
(** Fixed 1-decimal percentage-style number, e.g. [12.7]. *)

val f2 : float -> string
(** Fixed 2-decimal number. *)

val fmiss : float -> string
(** Miss-rate style: 2 decimals above 0.1, 3 decimals below (the paper
    prints [0.09], [0.05], [0.02] for the small rates). *)
