(* The per-layer metrics of a traced run, in BENCHMARK.json order. Each
   comes from a bench span total (Spans), a library registry key
   (Rb_util.Metrics, collected during the traced phase only) or a
   workload's own extras. A layer the workload never reaches reads 0. *)

module Metrics = Rb_util.Metrics

let collect ~snapshot ~extras ~domains ~traced_wall ~untraced_wall =
  let counter key =
    float_of_int (Option.value ~default:0 (List.assoc_opt key snapshot.Metrics.counters))
  in
  let timer key =
    match List.assoc_opt key snapshot.Metrics.timers with
    | Some d -> d.Metrics.total
    | None -> 0.0
  in
  let span = Spans.total in
  let extra name = Option.value ~default:0.0 (List.assoc_opt name extras) in
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  let hits = counter "cache/hits" and misses = counter "cache/misses" in
  [
    ("core.sweep_s", "s", span "core.sweep");
    ("core.sweep_pair_max_s", "s", extra "core.sweep_pair_max_s");
    ("core.codesign_optimal_s", "s", span "core.codesign_optimal");
    ("core.codesign_optimal_searched", "count", extra "core.codesign_optimal_searched");
    ("core.codesign_heuristic_s", "s", span "core.codesign_heuristic");
    ("core.combo_eval_s", "s", extra "core.combo_eval_s");
    ("core.context_s", "s", span "core.context");
    ("matching.assignments", "count", counter "matching/assignments");
    ("matching.relaxation_scans", "count", counter "matching/relaxation_scans");
    ("matching.augmenting_phases", "count", counter "matching/augmenting_phases");
    ("matching.assignment_s", "s", timer "matching/assignment");
    ("matching.canonicalize_s", "s", timer "matching/canonicalize");
    ("sched.schedule_s", "s", span "sched.schedule");
    ("workload.trace_s", "s", span "workload.trace");
    ("sim.kmatrix_build_s", "s", timer "sim/kmatrix_build");
    ("sim.app_errors_s", "s", span "sim.app_errors");
    ("sim.op_evals", "count", counter "sim/op_evals");
    ("hls.bind_area_s", "s", timer "binder/area_bind");
    ("hls.bind_power_s", "s", timer "binder/power_bind");
    ("hls.bind_obf_s", "s", timer "binder/obf_bind");
    ("hls.bind_codesign_s", "s", timer "binder/codesign_bind");
    ("sat.solve_s", "s", timer "sat/solve");
    ("sat.solves", "count", counter "sat/solves");
    ("sat.conflicts", "count", counter "sat/conflicts");
    ("sat.decisions", "count", counter "sat/decisions");
    ("sat.propagations", "count", counter "sat/propagations");
    ("sat.props_per_s", "1/s", ratio (counter "sat/propagations") (timer "sat/solve"));
    ("attack.dip_queries", "count", counter "attack/dip_queries");
    ("attack.decided_frac", "frac", extra "attack.decided_frac");
    ("limits.budget_exhausted", "count", counter "limits/budget_exhausted");
    ("service.decode_s", "s", span "service.decode");
    ("service.digest_s", "s", span "service.digest");
    ("service.execute_s", "s", span "service.execute");
    ("service.render_s", "s", span "service.render");
    ("store.hits", "count", hits);
    ("store.misses", "count", misses);
    ("store.hit_rate", "frac", ratio hits (hits +. misses));
    ("store.bytes", "bytes", extra "store.bytes");
    ("pool.task_busy_s", "s", timer "pool/task_busy");
    ("pool.queue_wait_s", "s", timer "pool/queue_wait");
    ("pool.tasks", "count", counter "pool/tasks");
    ("pool.utilization", "frac", ratio (timer "pool/task_busy") (float_of_int domains *. traced_wall));
    ("process.peak_rss_mb", "MB", extra "process.peak_rss_mb");
    ("trace.overhead_frac", "frac", ratio traced_wall untraced_wall -. 1.0);
  ]
