(** DIMACS CNF export.

    Lets a locked netlist's key-recovery or equivalence instances be
    handed to external SAT solvers/tools. The variable layout is
    documented in comment lines of the output: primary inputs first,
    key inputs second, then one variable per gate. *)

type t = {
  n_vars : int;
  clauses : int list list;
  input_vars : int array;
  key_vars : int array;
  output_vars : int array;
}

val of_netlist : Rb_netlist.Netlist.t -> t
(** {!Tseitin.encode} of one copy of the circuit, standalone, with
    variables numbered from 1. *)

val miter : Rb_netlist.Netlist.t -> t
(** {!Tseitin.miter} without an activation variable (two copies sharing
    primary inputs, separate keys, at least one output differing) as
    one CNF; [key_vars] holds the first copy's keys and [output_vars]
    the difference indicators. *)

val to_string : ?comments:string list -> t -> string
(** Render in DIMACS format with a variable-layout comment header. *)
