(** Small statistics helpers for aggregating experiment results. *)

val mean : float list -> float
(** Arithmetic mean; 0.0 on the empty list. *)

val median : float list -> float
(** Median; 0.0 on the empty list. *)

val maximum : float list -> float
(** Largest value; raises [Invalid_argument] on the empty list. *)
