(* Instrumented entry points over the dense Hungarian core. Perf
   tooling reads these counters and timers by name, so their keys
   are fixed. *)

module Metrics = Rb_util.Metrics

let m_assignments = Metrics.counter ~scope:"matching" "assignments"
let m_phases = Metrics.counter ~scope:"matching" "augmenting_phases"
let m_scans = Metrics.counter ~scope:"matching" "relaxation_scans"
let t_assignment = Metrics.timer ~scope:"matching" "assignment"

(* One augmenting phase per row. *)
let min_cost cost =
  let rows, _ = Hungarian.validate cost in
  if rows = 0 then [||]
  else begin
    Metrics.incr m_assignments;
    let assignment, scans = Metrics.time t_assignment (fun () -> Hungarian.solve cost) in
    Metrics.add m_phases rows;
    Metrics.add m_scans scans;
    assignment
  end

let negate = Array.map (Array.map (fun w -> -.w))

let max_weight weight = min_cost (negate weight)
