(* Output checks. Each returns whether one output is correct; the
   workloads count the ones that are not as failed. *)

module Experiments = Rb_core.Experiments
module Outcome = Rb_service.Outcome

(* paper-sweep: Thm. 2 — obfuscation-aware binding never yields fewer
   errors than either baseline under the same lock — and, where the
   optimal co-design searched the full candidate list, it is at least
   as good as the heuristic. *)
let sweep_ok ~n_candidates (r : Experiments.config_result) =
  Array.for_all
    (fun (c : Experiments.combo_errors) ->
      c.Experiments.e_obf >= c.Experiments.e_area && c.Experiments.e_obf >= c.Experiments.e_power)
    r.Experiments.combos
  && (r.Experiments.optimal_candidates_used < n_candidates
     || r.Experiments.e_codesign_optimal >= r.Experiments.e_codesign_heuristic)

(* kernel-scale: the co-designed binding is lint-clean, its Eqn. 2
   value is what the trace replay realizes, and it is no lower than the
   area-aware baseline's under the same lock (Thm. 1). *)
let kernel_ok ~lint ~errors ~clean_hits ~area_errors =
  Rb_lint.Report.is_clean lint && clean_hits = errors && errors >= area_errors

type attack_verdict = Decided | Undecided | Failed

(* attack: a recovered key must be functionally correct; a budget stop
   is a legitimate, deterministic "undecided"; an error fails. *)
let attack_verdict = function
  | Ok (Outcome.Attacked { Outcome.outcome = Outcome.Broken { key_correct; _ }; _ }) ->
    if key_correct then Decided else Failed
  | Ok (Outcome.Attacked { Outcome.outcome = Outcome.Solver_limit _ | Outcome.Budget_exceeded _; _ })
    ->
    Undecided
  | Ok _ | Error _ -> Failed

(* serve: the answer to request [id] must be an "ok" line echoing the
   id; returns the rendered outcome that follows the envelope. *)
let response_payload ~id line =
  let prefix = Printf.sprintf {|{"schema":"rb-result/1","id":%d,"ok":|} id in
  if String.starts_with ~prefix line then
    Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
  else None

(* The line the daemon must send for request [id] with outcome [o]: the
   re-run check renders a fresh executor's outcome through the same
   envelope and compares bytes. *)
let expected_line ~id o =
  Rb_util.Json.to_string
    (Rb_util.Json.Obj
       [
         ("schema", Rb_util.Json.String "rb-result/1");
         ("id", Rb_util.Json.Int id);
         ("ok", Rb_service.Render.result_to_json o);
       ])
