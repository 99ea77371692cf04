(* Instrumented entry points over the dense Hungarian core. Perf
   tooling reads these counters and timers by name, so their keys
   are fixed. *)

module Metrics = Rb_util.Metrics

let m_assignments = Metrics.counter ~scope:"matching" "assignments"
let m_phases = Metrics.counter ~scope:"matching" "augmenting_phases"
let m_scans = Metrics.counter ~scope:"matching" "relaxation_scans"
let t_assignment = Metrics.timer ~scope:"matching" "assignment"
let t_canonical = Metrics.timer ~scope:"matching" "canonicalize"

(* Min-cost solve of a validated matrix with [rows >= 1]. One
   augmenting phase per row. *)
let solve cost =
  Metrics.incr m_assignments;
  let ((_, _, _, scans) as sol) =
    Metrics.time t_assignment (fun () -> Hungarian.solve_with_duals cost)
  in
  Metrics.add m_phases (Array.length cost);
  Metrics.add m_scans scans;
  sol

let min_cost cost =
  let rows, _ = Hungarian.validate cost in
  if rows = 0 then [||]
  else begin
    let assignment, row_duals, col_duals, _ = solve cost in
    Metrics.time t_canonical (fun () ->
        Canonical.lex_min cost ~assignment ~row_duals ~col_duals)
  end

let negate = Array.map (Array.map (fun w -> -.w))

(* The canonical representative is computed on the negated instance,
   whose optimal face is the max-weight one. *)
let max_weight weight = min_cost (negate weight)

let max_weight_total weight =
  let cost = negate weight in
  let rows, _ = Hungarian.validate cost in
  if rows = 0 then 0.0
  else begin
    let assignment, _, _, _ = solve cost in
    let total = ref 0.0 in
    Array.iteri (fun r c -> total := !total +. weight.(r).(c)) assignment;
    !total
  end
