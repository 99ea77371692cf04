(** Golden operand columns of a trace.

    One golden simulation of the typical trace (Sec. IV-A) feeds both
    trace statistics the flow needs: the K matrix ({!Kmatrix.of_operands})
    and the operand-toggle model of power binding ([Rb_hls.Switching]). Each
    (operation, sample) operand pair is stored as its 16-bit minterm
    [(a lsl Word.width) lor b] — two bytes per pair — and each
    operation's samples are contiguous (op-major columns), so a
    per-operation sweep reads one cache-friendly run. Building once and
    deriving both statistics halves the simulation work of every
    context. *)

module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm

type t

val build : Trace.t -> t
(** One compiled golden pass ({!Exec.Fast}) over every sample. O(ops x
    samples) time, 2 bytes per (op, sample) pair. *)

val dfg : t -> Dfg.t
val n_ops : t -> int
val n_samples : t -> int

val minterm : t -> Dfg.op_id -> sample:int -> Minterm.t
(** The operand minterm operation [op] consumed in [sample]. O(1).
    Raises [Invalid_argument] outside the column bounds. *)
