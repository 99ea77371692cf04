(** Cycle-accurate simulation of a constructed datapath.

    Drives the control schedule of a {!Datapath.t} one clock cycle at a
    time — reading FU operand ports through their selected sources,
    latching FU outputs, committing register-file writes at cycle
    boundaries — and returns each operation's computed result. Agreement
    with the dataflow executor's golden run ({!Rb_sim.Exec}) is the
    end-to-end proof that binding, register allocation and mux wiring
    preserve the kernel's semantics; {!check_trace} asserts it over a
    whole workload. *)

val run : Datapath.t -> Rb_sim.Trace.t -> sample:int -> int array
(** Simulate one sample; index the result by operation id. Raises
    [Invalid_argument] if the trace wraps a different DFG. *)

val check_trace : Datapath.t -> Rb_sim.Trace.t -> (unit, string) result
(** Compare {!run} against the golden dataflow results on every
    sample, with one {!Rb_sim.Exec.Fast} evaluator compiled for the
    whole trace; the error names the first mismatching (sample, op). *)
