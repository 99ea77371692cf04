(** Typed description of every unit of work [bindlock] can perform.

    A {!t} value is the single entry point into the pipeline: the CLI
    subcommands build one from their parsed flags, the serve daemon
    decodes one per [rb-job/1] request line, and the bench harness
    replays arrays of them. Executing a job is {!Executor.run}'s
    business; this module only describes, encodes and validates it.

    The JSON codec is total over the closed variant and applies the
    CLI's historical defaults for omitted fields, so
    [{"op":"bind","benchmark":"dct"}] means exactly
    [bindlock bind -b dct]. {!of_json} validates parameter bounds at
    decode time — a width of 77 is rejected as [Invalid_request]
    before any pipeline code runs, never as a mid-pipeline
    exception. *)

type scheme = Rll | Pf | Antisat | Permnet

val scheme_label : scheme -> string
(** ["rll"], ["pf"], ["antisat"], ["permnet"]. *)

val scheme_of_label : string -> scheme option

type custom_source =
  | Dfg_source of string  (** DFG text format, [Rb_dfg.Dfg_text] *)
  | Expr_source of string  (** behavioural expression code, [Rb_dfg.Expr] *)

type t =
  | List_benchmarks
  | Show of { benchmark : string; seed : int }
  | Bind of {
      benchmark : string;
      seed : int;
      binder : string;
      kind : Rb_dfg.Dfg.op_kind;
      locked_fus : int;
      minterms_per_fu : int;
    }
  | Lint of {
      benchmark : string option;  (** [None] lints the suite + gate gadgets *)
      seed : int;
      locked_fus : int;
      minterms_per_fu : int;
      min_lambda : float option;
    }
  | Analyze of {
      scheme : scheme option;  (** [None] analyzes all four schemes *)
      width : int;
      strength : int;
      seed : int;
    }
  | Attack of {
      scheme : scheme;  (** [Antisat] is rejected by {!validate} *)
      width : int;
      strength : int;
      seed : int;
      max_iterations : int;
      portfolio : int;
          (** racing solver members, 1..64; does not change the
              reported result (see {!Rb_sat.Attack}) *)
    }
  | Custom of {
      source : custom_source;
      kind : Rb_dfg.Dfg.op_kind;
      locked_fus : int;
      minterms_per_fu : int;
      trace_length : int;
      seed : int;
    }
  | Export_cnf of {
      scheme : scheme;  (** [Antisat] is rejected by {!validate} *)
      width : int;
      strength : int;
      miter : bool;
      seed : int;
    }
  | Export_dfg of { benchmark : string }
  | Dot of { benchmark : string }

val op : t -> string
(** Wire name of the operation: ["list"], ["show"], ["bind"],
    ["lint"], ["analyze"], ["attack"], ["custom"], ["export-cnf"],
    ["export-dfg"], ["dot"]. *)

val to_json : t -> Rb_util.Json.t
(** Full encoding: every field is emitted, including ones at their
    default value, so the encoding of a job is independent of how it
    was spelled. Envelope fields ([schema], [id]) are the transport's
    business and are not included. *)

val validate : t -> (unit, Error.t) result
(** Parameter-bound checks that need no name lookup or file system:
    widths (2..8, or 2..10 for export-cnf), strength 1..256,
    locked-fus 1..64, minterms 1..{!Rb_core.Codesign.n_candidates}
    (no candidate list is longer), trace-length 1..1_000_000,
    max-iterations 1..10_000_000, and scheme compatibility. Name
    resolution (benchmarks, binders) and the lock bounds (an
    [Infeasible] error: [rll] has at most one key bit per live adder
    gate, [pf] at most the adder's 2{^ 2 width} input minterms) happen
    at execution time. *)

val of_json : Rb_util.Json.t -> (t, Error.t) result
(** Decode and {!validate}. Unknown fields are ignored (the serve
    envelope carries [schema] and [id] alongside the job fields);
    omitted or [null] fields take the CLI defaults; wrong field types
    and out-of-bounds values are [Invalid_request] errors. One field
    reader decodes every field, so each failure has one message, e.g.
    ["missing required field \"op\""] for a required field and
    ["field \"seed\" must be an integer"] for a wrong type (likewise
    ["a boolean"], ["a string"], ["a number"], and
    ["\"add\" or \"mul\""] for [kind]), besides
    ["unknown scheme \"xor\""], ["unknown op \"x\""] and the [custom]
    format's ["field \"format\" must be \"dfg-text\" or \"expr\" (got \"v\")"].
    Fields are read in the order of the job's record, so the first bad
    one is reported. *)

val digest : t -> string
(** Content address of the job: the MD5 of
    [Rb_util.Json.to_string (to_json t)], with an attack's [portfolio]
    and an antisat analysis's [strength] read as 1. {!to_json} emits
    every field in one fixed order, so two jobs digest equal iff they
    mean the same work, regardless of spelling (field order, defaulted
    vs. explicit fields), of how many solvers race for an attack's
    result, and of a strength the Anti-SAT construction does not
    read. *)
