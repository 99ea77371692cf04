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
  expected_errors : int;
  report : Rb_sim.Exec.error_report;
  registers : int;
  switching_rate : float;
}

type attack_outcome =
  | Broken of { iterations : int; key_correct : bool; key : string }
  | Budget_exceeded of { iterations : int }
  | Solver_limit of { iterations : int; reason : Rb_util.Limits.reason }

type attack_report = {
  description : string;
  stats : string;
  outcome : attack_outcome;
}

type t =
  | Benchmarks of { rows : benchmark_row list; binders : (string * string) list }
  | Text of string
  | Bound of bind_report
  | Linted of Rb_lint.Report.t list
  | Analyzed of Rb_analysis.Report.t list
  | Attacked of attack_report
