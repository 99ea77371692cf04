(** The original K matrix, retained as a differential oracle for
    {!Rb_sim.Kmatrix}: one polymorphic hash table of [int ref] counts
    per operation, built by probing once per (op, sample), with
    hash-table accumulation behind the aggregate queries. The library
    counts packed operand columns into compressed sparse rows instead.
    Same queries, same answers. *)

module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm

type t

val build : Rb_sim.Trace.t -> t
val of_counts : Dfg.t -> (Dfg.op_id * (Minterm.t * int) list) list -> t
val count : t -> Minterm.t -> Dfg.op_id -> int
val count_set : t -> Minterm.Set.t -> Dfg.op_id -> int
val op_histogram : t -> Dfg.op_id -> (Minterm.t * int) list
val total_occurrences : t -> Minterm.t -> int
val top_minterms : ?kind:Dfg.op_kind -> t -> n:int -> Minterm.t list
val all_minterms : ?kind:Dfg.op_kind -> t -> (Minterm.t * int) list
val distinct_minterms : t -> int
val head_mass : ?kind:Dfg.op_kind -> t -> n:int -> float
val op_concentration : t -> Minterm.t -> float
