(** Datapath construction — from a binding to registers, muxes and a
    control schedule.

    A binding fixes which FU executes each operation; this module
    finishes the RT-level design: it takes its physical registers from
    {!Rb_hls.Registers.allocate} (left-edge over each FU bank, the
    allocation the Fig. 6 register count counts), wires every
    FU operand port to its sources through multiplexers, and lays out
    the per-cycle control word. The result can be simulated
    cycle-accurately ({!Rtl_sim}) and emitted as Verilog
    ({!Verilog}). *)

module Dfg = Rb_dfg.Dfg

(** Where an FU operand port gets its value in a given cycle. *)
type source =
  | From_input of string  (** primary input port *)
  | From_const of int  (** hardwired constant *)
  | From_fu of int  (** another FU's output latch (bypass path) *)
  | From_register of int  (** physical register, global id *)

(** One operation issue: FU [fu] executes [op] in [cycle], reading its
    ports from [lhs_src]/[rhs_src]. *)
type issue = {
  op : Dfg.op_id;
  fu : int;
  cycle : int;
  lhs_src : source;
  rhs_src : source;
}

(** A register-file write: at the end of [cycle], register [register]
    captures FU [fu]'s result (the value of [op]). *)
type write = { register : int; cycle : int; fu : int; op : Dfg.op_id }

type t

val build : Rb_hls.Binding.t -> t
(** Elaborate a bound schedule into a datapath. Every operation gets an
    issue slot; every value {!Rb_hls.Registers.allocate} places gets
    its register in the producer FU's bank. *)

val binding : t -> Rb_hls.Binding.t
val n_registers : t -> int
(** Physical registers allocated; equals {!Rb_hls.Registers.count} of
    the binding (both read one allocation). *)

val issues : t -> issue list
(** All issues, ordered by (cycle, fu). *)

val writes : t -> write list
(** All register writes, ordered by (cycle, register). *)

val register_of_value : t -> Dfg.op_id -> int option
(** The register holding an operation's result, or [None] when the
    value lives only in the producer's output latch. *)

val mux_inputs : t -> int
(** Total multiplexer fan-in across all FU ports: the sum over ports of
    (distinct sources - 1) when a port has more than one source. An
    interconnect-cost companion to the register count. *)

val validate : t -> (unit, string) result
(** Internal consistency: every issue's sources are defined at its
    cycle, no two writes hit one register in one cycle, every consumed
    value is readable where the issue expects it. Exercised by tests;
    [build] output always validates. *)
