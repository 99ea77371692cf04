(** The shared diagnostic record every lint rule emits.

    One diagnostic is one violation of one design rule at one location.
    Rule identifiers are short stable strings ([NET-DEAD],
    [LOCK-RESIL], ...) declared next to the rule implementations
    ({!Netlist_rules}, {!Locking_rules}, and [HLS-BIND] in {!Lint});
    reporters and tests match on them, so they are part of the public
    contract and never change meaning. A retired identifier is never
    reused. *)

type severity =
  | Error  (** the artifact violates a correctness or security invariant *)
  | Warning  (** suspicious but not invalidating (dead logic, wasted budget) *)

(** Where in the artifact the rule fired. *)
type location =
  | Gate of int  (** a netlist gate index *)
  | Key_input of int  (** a key input, by key index *)
  | Output of int  (** an output, by declaration position *)
  | Fu of int  (** a functional unit id *)
  | Whole_design  (** no finer location applies *)

type t = {
  rule : string;  (** stable rule identifier *)
  severity : severity;
  location : location;
  message : string;  (** human-readable, one line *)
  hint : string option;  (** how to fix it, when the rule knows *)
}

val error : ?hint:string -> rule:string -> location -> string -> t
val warning : ?hint:string -> rule:string -> location -> string -> t

val severity_label : severity -> string
(** ["error"] or ["warning"] — shared by both reporters. *)

val location_label : location -> string
(** E.g. ["gate 3"], ["key input 0"], ["design"]. *)

val compare : t -> t -> int
(** Severity first (errors before warnings), then rule id,
    then location, then message — the stable report order. *)

val pp : Format.formatter -> t -> unit
(** One line: [error[NET-KEY-MUTE] key input 3: message]. *)
