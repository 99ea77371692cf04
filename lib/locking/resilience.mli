(** The corruption/resilience trade-off — paper Eqn. 1.

    For a locked module with key length [k], [c] functionally correct
    keys and a fraction [epsilon] of corrupted input minterms, the
    expected number of SAT-attack iterations is

    {v
      lambda = ceil( log( (N - eN) / (eN (N-1)) ) / log( (N - eN) / (N-1) ) )
      where N = 2^k - c  and  e = epsilon
    v}

    Every function here takes c = 1: a critical-minterm lock has one
    correct key, so N = 2^k - 1.

    (Zuzak et al., "Trace logic locking", TCAD 2020, as quoted in the
    paper). Because [lambda] falls as [epsilon] rises, a SAT-resilient
    configuration can only lock a handful of minterms per FU — the
    budget the binding algorithms then spend as effectively as
    possible. *)

val lambda : key_bits:int -> epsilon:float -> float
(** Expected SAT iterations of paper Eqn. 1. Returns [infinity] when
    [epsilon] is so small that no DIP can prune wrong keys faster than
    one per iteration would ever finish (numerically: non-positive
    logs), and [1.0] when every wrong key dies on the first iteration.
    Raises [Invalid_argument] for [epsilon] outside (0, 1) or
    [key_bits] outside [1, 1024]. *)

val lambda_minterms : key_bits:int -> input_bits:int -> minterms:int -> float
(** {!lambda} with [epsilon = minterms / 2^input_bits] — the form used
    everywhere in this library, where a locking configuration is
    described by its locked-minterm count. {!Rb_locking.Config.resilience}
    applies it to one locked FU. *)

val max_minterms_for : key_bits:int -> input_bits:int -> min_lambda:float -> int
(** Largest locked-minterm count whose predicted [lambda] still meets
    [min_lambda]; 0 when even a single minterm is too corrupting. The
    resilience budget used by the Sec. V-C methodology. *)
