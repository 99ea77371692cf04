(* kernel-scale: the front end and co-design at 1k-9k operations. One
   operation is one job: schedule a parametric kernel with 8 adders and
   8 multipliers, synthesize a seeded trace, build the K matrix,
   co-design 2 FUs x 2 minterms with the heuristic and replay the trace
   for application errors. A pass is 16 jobs (8 kernels x 2 kinds), two
   at a time on the pool. *)

module Benchmark = Rb_workload.Benchmark
module Kmatrix = Rb_sim.Kmatrix
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Codesign = Rb_core.Codesign
module Pool = Rb_util.Pool

let limits = { Rb_sched.Scheduler.adders = 8; multipliers = 8 }

(* One job's outputs, kept for the checks after the run. *)
type output = {
  job : Streams.kernel_job;
  fu_of_op : int array;
  config : Rb_locking.Config.t;
  candidates : Rb_dfg.Minterm.t array;
  errors : int;
  clean_hits : int;
}

let execute bench ~parent (job : Streams.kernel_job) =
  let span name f = Spans.with_span ~parent name (fun _ -> f ()) in
  let schedule = span "sched.schedule" (fun () -> Benchmark.schedule ~limits bench) in
  let trace = span "workload.trace" (fun () -> Benchmark.trace ~seed:job.trace_seed bench) in
  let k = span "sim.kmatrix_build" (fun () -> Kmatrix.build trace) in
  let allocation = Allocation.for_schedule schedule in
  let candidates = Array.of_list (Kmatrix.top_minterms ~kind:job.kind k ~n:10) in
  let spec =
    { Codesign.scheme = Rb_locking.Scheme.Sfll_rem;
      locked_fus = List.filteri (fun i _ -> i < 2) (Allocation.fu_ids allocation job.kind);
      minterms_per_fu = 2; candidates }
  in
  let sol = span "core.codesign_heuristic" (fun () -> Codesign.heuristic k schedule allocation spec) in
  let fu_of_op = Binding.fu_array sol.Codesign.binding in
  let report =
    span "sim.app_errors" (fun () ->
        Rb_sim.Exec.application_errors schedule trace ~fu_of_op ~config:sol.Codesign.config)
  in
  { job; fu_of_op; config = sol.Codesign.config; candidates; errors = sol.Codesign.errors;
    clean_hits = report.Rb_sim.Exec.clean_hits }

(* Lint the binding and compare its Eqn. 2 value with the area-aware
   baseline's under the same lock. The baseline depends only on the
   schedule, so it is bound once per kernel; the K matrix is rebuilt
   from the job's seed. *)
let verify pool benches outputs =
  let baselines =
    Pool.map_list pool
      ~f:(fun ((family, size), bench) ->
        let schedule = Benchmark.schedule ~limits bench in
        let allocation = Allocation.for_schedule schedule in
        ((family, size), (schedule, allocation, Rb_hls.Area_binding.bind schedule allocation)))
      benches
  in
  Pool.map_array pool (Array.of_list outputs) ~f:(fun o ->
      let schedule, allocation, area = List.assoc (o.job.family, o.job.size) baselines in
      let bench = List.assoc (o.job.family, o.job.size) benches in
      let k = Kmatrix.build (Benchmark.trace ~seed:o.job.trace_seed bench) in
      let lint =
        Rb_lint.Lint.design ~config:o.config ~candidates:o.candidates
          ~subject:(Printf.sprintf "%s%d" o.job.family o.job.size) schedule allocation
          ~fu_of_op:o.fu_of_op
      in
      Checks.kernel_ok ~lint ~errors:o.errors ~clean_hits:o.clean_hits
        ~area_errors:(Rb_core.Cost.expected_errors k area o.config))
  |> Array.fold_left (fun n ok -> if ok then n else n + 1) 0

let setup pool ~seed =
  let benches =
    Pool.map_list pool
      ~f:(fun (family, n) -> ((family, n), Benchmark.parametric family ~n))
      Streams.kernels
  in
  let pass = ref 0 in
  let outputs = ref [] in
  let next_pass () =
    let p = !pass in
    incr pass;
    let jobs = Streams.kernel_pass ~seed p in
    let n = Array.length jobs in
    Pool.map_array pool (Array.mapi (fun i j -> (i, j)) jobs)
      ~f:(fun (i, (job : Streams.kernel_job)) ->
        Spans.with_span ~req:((p * n) + i) "request" (fun parent ->
            let t0 = Measure.now () in
            let out =
              try Some (execute (List.assoc (job.family, job.size) benches) ~parent job)
              with _ -> None
            in
            (Measure.now () -. t0, out)))
    |> Array.map (fun (lat, out) ->
           match out with
           | Some o ->
             outputs := o :: !outputs;
             (lat, true)
           | None -> (lat, false))
  in
  {
    Measure.run = (fun n -> Measure.passes n ~next_pass);
    verify = (fun () -> verify pool benches !outputs);
    probe = ignore;
    extras = (fun () -> []);
    teardown = ignore;
  }

let workload = { Measure.name = "kernel-scale"; op_label = "job"; unit_label = "passes"; units_per_s = 0.5; setup }
