(* The repository's benchmark: five workloads, each run in its own
   process on a fixed pool of 2 domains.

     workloads.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     workloads.exe --selftest

   Every run does a fixed amount of work, sized from S by the
   workload's nominal rate so that it takes about S seconds on 2
   domains. Untraced (--trace 0): set up repeatedly and keep the median
   set-up time, then run the work closed-loop with Rb_util.Metrics off;
   check every output; print the end-to-end metrics. Traced
   (--trace 1): set up once, run half the work untraced and half traced
   — library registry on, bench spans on — and print the per-layer
   metrics; the spans and per-layer totals go to
   perfbench/out/<workload>-<seed>.spans.json.

   The last line of stdout is one JSON object: correct, attempted,
   failed and metrics. Human-readable lines go to stderr. The benchmark
   proper is perfbench/run.py, which builds this program and runs it
   with the runtime parameters the numbers assume. *)

module Metrics = Rb_util.Metrics
module Pool = Rb_util.Pool

let domains = 2

let workloads =
  [ Sweep_load.workload; Kernel_load.workload; Attack_load.workload; Serve_load.cold;
    Serve_load.hot ]

let usage () =
  Printf.eprintf
    "usage: workloads.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       workloads.exe --selftest\n\
     workloads: %s\n"
    (String.concat " " (List.map (fun w -> w.Measure.name) workloads));
  exit 2

(* Numbers are printed with every digit measured. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "non-finite metric"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (number v) unit)
          metrics))

let report_metrics metrics =
  List.iter (fun (name, unit, v) -> Printf.eprintf "  %-32s %14.6g %s\n" name v unit) metrics

(* Set up at least 5 times and until two seconds have gone by (at most
   200 times); every instance but the last is torn down. The repetitions
   span seconds because the vCPUs of a shared virtual machine change
   speed on that scale, and a set-up of a few milliseconds would
   otherwise see only one of them. *)
let repeated_setup (w : Measure.workload) pool ~seed =
  let started = Measure.now () in
  let rec go times =
    let t0 = Measure.now () in
    let inst = w.setup pool ~seed in
    let times = (Measure.now () -. t0) :: times in
    let n = List.length times in
    if n >= 5 && (Measure.now () -. started >= 2.0 || n >= 200) then (inst, times)
    else begin
      inst.Measure.teardown ();
      (* so the instances torn down leave no garbage to the measured run *)
      Gc.full_major ();
      go times
    end
  in
  go []

let units (w : Measure.workload) ~seconds =
  max 1 (int_of_float (Float.round (float_of_int seconds *. w.Measure.units_per_s)))

let median xs = Measure.percentile (Array.of_list xs) 0.5

(* Memory is bounded where it repeats: the data set-up leaves live for
   the work. Peak resident memory is reported (stderr here,
   process.peak_rss_mb in a traced run) but not bounded: with both
   domains allocating, when the major GC finishes its cycles decides the
   peak through the work, and on a shared host the attack workload's
   varies by up to 15% between runs; the peak through set-up jumps
   between levels up to 3 MB apart. *)
let untraced (w : Measure.workload) pool ~seed ~seconds =
  let inst, setup_times = repeated_setup w pool ~seed in
  let setup_s = median setup_times in
  let setup_live_mb = Measure.live_mb () in
  let setup_rss_mb = Measure.peak_rss_mb () in
  let p = inst.Measure.run (units w ~seconds) in
  let peak_rss_mb = Measure.peak_rss_mb () in
  let failed = p.Measure.failed + inst.Measure.verify () in
  inst.Measure.teardown ();
  let n = p.Measure.completed in
  let ms q = 1000.0 *. Measure.percentile p.Measure.latencies q in
  Printf.eprintf "%s seed %d: %d %ss in %.2f s (%d failed), set-up median of %d: %.4f s\n"
    w.Measure.name seed n w.Measure.op_label p.Measure.elapsed failed
    (List.length setup_times) setup_s;
  Printf.eprintf "  latency over %d samples: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n" n (ms 0.5)
    (ms 0.9) (ms 0.99);
  Printf.eprintf
    "  memory: %.2f MB live after set-up; peak resident %.1f MB after set-up, %.1f MB after the work\n"
    setup_live_mb setup_rss_mb peak_rss_mb;
  let metrics =
    [
      ("throughput_per_s", "1/s", float_of_int n /. p.Measure.elapsed);
      ("latency_p50_ms", "ms", ms 0.5);
      ("latency_p90_ms", "ms", ms 0.9);
      ("setup_live_mb", "MB", setup_live_mb);
      ("setup_s", "s", setup_s);
    ]
  in
  report_metrics metrics;
  (failed = 0 && n > 0, n + failed, failed, metrics)

let traced (w : Measure.workload) pool ~seed ~seconds =
  Spans.set_enabled true;
  let inst = w.Measure.setup pool ~seed in
  Spans.set_enabled false;
  let units = max 1 (units w ~seconds / 2) in
  let u = inst.Measure.run units in
  let peak_rss_mb = Measure.peak_rss_mb () in
  Metrics.reset ();
  Metrics.set_enabled true;
  Spans.set_enabled true;
  let t = inst.Measure.run units in
  let snapshot = Metrics.snapshot () in
  (* The probe's re-runs pay the registry's cost too, so their spans
     compare with the traced phase's; the snapshot leaves them out. *)
  inst.Measure.probe ();
  Metrics.set_enabled false;
  Spans.set_enabled false;
  let failed = u.Measure.failed + t.Measure.failed + inst.Measure.verify () in
  let extras = ("process.peak_rss_mb", peak_rss_mb) :: inst.Measure.extras () in
  inst.Measure.teardown ();
  let metrics =
    Layers.collect ~snapshot ~extras ~domains ~traced_wall:t.Measure.elapsed
      ~untraced_wall:u.Measure.elapsed
  in
  Measure.ensure_out_dir ();
  let path =
    Filename.concat Measure.out_dir (Printf.sprintf "%s-%d.spans.json" w.Measure.name seed)
  in
  let meta =
    Rb_util.Json.
      [
        ("workload", String w.Measure.name);
        ("seed", Int seed);
        ("domains", Int domains);
        ("untraced_wall_s", Float u.Measure.elapsed);
        ("traced_wall_s", Float t.Measure.elapsed);
        ("registry", Metrics.to_json snapshot);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Rb_util.Json.to_string (Spans.to_json ~meta));
      Out_channel.output_char oc '\n');
  let n = u.Measure.completed + t.Measure.completed in
  Printf.eprintf
    "%s seed %d traced: %d %s per phase (%d %ss), untraced %.2f s, traced %.2f s; spans in %s\n"
    w.Measure.name seed units w.Measure.unit_label t.Measure.completed
    w.Measure.op_label u.Measure.elapsed t.Measure.elapsed path;
  report_metrics metrics;
  (failed = 0 && n > 0, n + failed, failed, metrics)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10 and trace = ref false in
  let selftest = ref false in
  let int_arg flag s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ ->
      Printf.eprintf "%s expects a non-negative integer, got %S\n" flag s;
      exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: name :: rest ->
      (match List.find_opt (fun w -> w.Measure.name = name) workloads with
      | Some w -> workload := Some w
      | None ->
        Printf.eprintf "unknown workload %S\n" name;
        usage ());
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_arg "--seed" n;
      parse rest
    | "--seconds" :: n :: rest ->
      seconds := max 1 (int_arg "--seconds" n);
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--selftest" :: rest ->
      selftest := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if (not !selftest) && !workload = None then usage ();
  Rb_core.Binders.ensure_registered ();
  Rb_matching.Matchers.ensure_registered ();
  exit
    (Pool.with_pool ~jobs:domains (fun pool ->
         match !workload with
         | Some w when not !selftest ->
           let run = if !trace then traced else untraced in
           let correct, attempted, failed, metrics = run w pool ~seed:!seed ~seconds:!seconds in
           print_endline (result_line ~correct ~attempted ~failed metrics);
           0
         | _ -> Selftest.run pool))
