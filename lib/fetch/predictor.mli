(** Branch direction predictors.

    The paper uses perfect prediction throughout "to examine the
    performance limit of the examined techniques, avoiding interference
    due to branch and target mispredictions". These predictors let the
    reproduction quantify that interference: the fetch engine can charge a
    redirect penalty for every mispredicted conditional-branch direction.

    Prediction here is about the {e direction} (taken / not taken) of the
    branch ending a basic block under a given layout; unconditional
    transfers, calls and returns are considered always predicted (BTB +
    return-address stack).

    A predictor holds its tables and history only. Mispredictions are
    counted per slot by {!Engine.Bank} (the result's [mispredictions]),
    and accuracy follows from the result (the [p_accuracy] of
    [Stc_core.Extensions.prediction]). *)

type kind =
  | Always_taken
  | Bimodal of int  (** 2-bit counters; the int is the table size (pow 2). *)
  | Gshare of int * int  (** table size, history bits. *)

type t

val create : kind -> t
(** Raises [Invalid_argument] naming the field unless the table size is
    a power of two and a [Gshare] history length is [>= 0]. *)

val predict_and_update : t -> pc:int -> taken:bool -> bool
(** [predict_and_update t ~pc ~taken] returns whether the prediction was
    correct, and trains the predictor with the outcome. *)
