(** Rb_lint — a design-rule checker for netlists, bindings and locking
    configurations.

    Every security claim in this reproduction rests on structural
    invariants: key gates must sit on live logic or the SAT attack
    trivially wins, bindings must never double-book an FU in a cycle
    (paper Thm. 1), and locking configs must respect the Eqn. 1
    resilience bound. This library checks those invariants statically
    — before simulation or SAT attack — with two rule sets,
    {!Netlist_rules} (gate level) and {!Locking_rules}
    (configuration). HLS artifacts carry their own validity:
    {!Rb_sched.Schedule.make} rejects an acausal schedule and
    {!Rb_hls.Binding.make} an invalid binding, so {!design} reuses the
    latter rather than keeping a second copy of its checks. Each rule
    set returns {!Diagnostic.t} lists; this module bundles them into
    {!Report.t}s for whole artifacts.

    The [bindlock lint] subcommand is the command-line front end; text
    and JSON rendering live in {!Report}. *)

val netlist : ?subject:string -> Rb_netlist.Netlist.t -> Report.t
(** Run the gate-level rules. [subject] defaults to ["netlist"]. *)

val locked : ?subject:string -> Rb_netlist.Lock.locked -> Report.t
(** {!netlist} on a locked circuit; the subject defaults to the
    construction's description string. *)

val rule_binding : string
(** [HLS-BIND] (error): the raw operation-to-FU array given to
    {!design} is not a valid binding — wrong length, an FU out of
    range or of the wrong kind, or an FU double-booked in one cycle
    (paper Thm. 1). The message is {!Rb_hls.Binding.make}'s. *)

val design :
  ?min_lambda:float ->
  ?candidates:Rb_dfg.Minterm.t array ->
  ?config:Rb_locking.Config.t ->
  subject:string ->
  Rb_sched.Schedule.t ->
  Rb_hls.Allocation.t ->
  fu_of_op:int array ->
  Report.t
(** Check one bound (and optionally locked) design: binding validity
    ({!rule_binding}), and the locking rules when [config] is given
    (over the word-level FU input space,
    [input_bits = Minterm.bits]). Raw input is diagnosed, never
    raised. *)
