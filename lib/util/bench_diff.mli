(** Compare two machine-readable bench reports ([BENCH.json], as
    emitted by [bench/main.exe --metrics]) against per-metric
    tolerances — the logic behind [bench/compare.exe] and the CI
    perf-regression gate.

    The deterministic/timing split of {!Metrics} drives the policy:

    - {b counters are exact} — they count logical work, so any drift
      means behaviour changed, in either direction;
    - {b wall-clock is judged once, on the sum over the shared
      sections, tolerance-banded and one-sided} — only
      [current > baseline * (1 + wall_tol)] is a regression; getting
      faster never fails the gate.

    Divergence in either direction is surfaced: anything in
    [baseline] but missing from [current] is a failure (silent
    coverage shrink is exactly what the gate exists to catch), and a
    counter only in [current] is a failure too — behaviour grew
    without a baseline refresh. Sections only in [current] are
    informational — the gate runs a pinned section list, so an extra
    section cannot slip in silently. *)

type kind =
  | Missing_section  (** baseline section absent from current *)
  | Missing_counter  (** baseline counter absent from the section *)
  | New_counter  (** counter absent from the baseline section *)
  | Counter_drift  (** counter changed, either direction *)
  | Wall_regression  (** section ["total"]: summed wall-clock above the band *)

type violation = {
  section : string;
  metric : string;  (** [""] for section-level violations *)
  kind : kind;
  baseline : float;
  current : float;
}

type report = {
  violations : violation list;  (** document order *)
  sections_checked : int;
  counters_checked : int;
  additions : string list;
      (** sections only in [current]; informational *)
  walls : (string * float * float) list;
      (** [(section, baseline wall_s, current wall_s)] for every
          section in both documents, in baseline order; informational *)
  total_wall : float * float;  (** sums of {!walls}, the one wall judged *)
}

val describe : violation -> string
(** One human-readable line, e.g.
    ["fig6: counter matching/phases drifted 120 -> 140"]. *)

val compare_docs :
  ?wall_tol:float -> baseline:Json.t -> current:Json.t -> unit -> (report, string) result
(** [wall_tol] is a relative fraction (e.g. [0.5] = +50%, the
    default). [Error] means one of the documents does not have the [rb-bench/1]
    shape (that is a malformed input, not a regression — callers
    should exit with a distinct status). *)

val compare_files :
  ?wall_tol:float -> baseline:string -> current:string -> unit -> (report, string) result
(** {!compare_docs} over two files; file read and JSON parse errors
    surface as [Error]. *)
