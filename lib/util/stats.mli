(** Small statistics helpers for aggregating experiment results. *)

val mean : float list -> float
(** Arithmetic mean; 0.0 on the empty list. *)

val stdev : float list -> float
(** Sample standard deviation; 0.0 for fewer than two values. *)

val median : float list -> float
(** Median; 0.0 on the empty list. *)

val minimum : float list -> float
(** Smallest value; raises [Invalid_argument] on the empty list. *)

val maximum : float list -> float
(** Largest value; raises [Invalid_argument] on the empty list. *)

val ratio : num:float -> den:float -> float
(** [ratio ~num ~den] is [num /. den], treating a zero denominator as a
    ratio of 1.0 when the numerator is also zero and infinity
    otherwise. Used for error-increase factors where a baseline binding
    may inject zero errors. *)
