(** Structured results of executed jobs.

    An {!t} is what {!Executor.run} returns on success: pure data,
    detached from any output medium. {!Render} turns one into the
    CLI's historical text or pretty JSON; the serve daemon embeds the
    JSON form in an [rb-result/1] line; tests compare outcomes
    structurally. Nothing here is allowed to depend on wall-clock
    time — attack durations, for example, are measured by the caller
    around {!Executor.run} — so outcomes are byte-reproducible across
    [--jobs] values and cache hits. *)

type benchmark_row = {
  name : string;
  source : string;
  adds : int;
  muls : int;
  cycles : int;
}

type bind_report = {
  benchmark : string;
  binder : string;
  kind : Rb_dfg.Dfg.op_kind;
  config : Rb_locking.Config.t;
  expected_errors : int;  (** cost Eqn. 2 under the produced binding *)
  report : Rb_sim.Exec.error_report;
  registers : int;
  switching_rate : float;
}

type attack_outcome =
  | Broken of {
      iterations : int;
      key_correct : bool;
      key : string;
          (** recovered key as a '0'/'1' bitstring in key-index order —
              the canonical lex-min key, identical at every
              jobs/portfolio combination (what makes attack reports
              byte-comparable across parallelism settings) *)
    }
  | Budget_exceeded of { iterations : int }
  | Solver_limit of { iterations : int; reason : Rb_util.Limits.reason }
      (** a conflict budget ran out; a deadline or cancel stop never
          reaches a caller as an outcome ({!Executor.run} answers a
          [Limit] error instead) *)

type attack_report = {
  description : string;  (** the locked construction's description *)
  stats : string;  (** pre-rendered netlist statistics line *)
  outcome : attack_outcome;
}

type t =
  | Benchmarks of {
      rows : benchmark_row list;
      binders : (string * string) list;  (** (name, description) *)
    }
  | Text of string
      (** a payload that is its own text form: show's schedule and
          workload report, custom's co-design report, and the export
          payloads (DFG text, DIMACS, dot) *)
  | Bound of bind_report
  | Linted of Rb_lint.Report.t list
  | Analyzed of Rb_analysis.Report.t list
  | Attacked of attack_report
