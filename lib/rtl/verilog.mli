(** Structural Verilog emission of a constructed datapath.

    Produces a synthesizable single-clock module: one input port per
    primary input, one output port per DFG output, a cycle counter FSM,
    the FU output latches, the allocated registers, and per-cycle mux
    selection encoded as [case] statements over the counter. The
    numbers in a comment header record the resource summary
    (registers, mux fan-in) so emitted files are self-describing.

    Emission is deterministic; the test suite checks structure (module
    header, port list, one [case] arm per active cycle) and resource
    counts rather than simulating Verilog. *)

val emit : Datapath.t -> string
(** Render the module, named after the DFG. *)
