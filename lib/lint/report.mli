(** A lint report: the diagnostics of one checked artifact.

    Reports are what rule sets return to callers and what the two
    reporters (text for terminals, JSON for tooling) render. A report
    is {e clean} when it carries no [Error]-severity diagnostic;
    warnings never fail a build. *)

type t

val make : subject:string -> Diagnostic.t list -> t
(** Sorts the diagnostics into the stable {!Diagnostic.compare}
    order. [subject] names the artifact ("dct/mul", "locked adder"). *)

val subject : t -> string
val diagnostics : t -> Diagnostic.t list

val errors : t -> Diagnostic.t list
val error_count : t -> int
val warning_count : t -> int

val is_clean : t -> bool
(** No error-severity diagnostics. *)

val total_errors : t list -> int

val pp : Format.formatter -> t -> unit
(** Text reporter: a header line with the subject and counts, then one
    indented line per diagnostic (plus its fix hint when present). *)

val json : t -> Rb_util.Json.t
(** The report as a {!Rb_util.Json} value, for embedding in larger
    documents (e.g. the CLI's [--format json] outputs). *)

val to_json : t -> string
(** JSON reporter, one object:
    [{"subject": ..., "errors": n, "warnings": n, "diagnostics":
    [{"rule", "severity", "location", "message", "hint"?}, ...]}].
    Locations are objects [{"kind": "gate", "index": 3}] ([index]
    omitted for the whole-design location). *)
