module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Benchmark = Rb_workload.Benchmark
module Kmatrix = Rb_sim.Kmatrix
module Exec = Rb_sim.Exec
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Config = Rb_locking.Config
module Binders = Rb_core.Binders
module Codesign = Rb_core.Codesign
module Cost = Rb_core.Cost
module Pool = Rb_util.Pool
module Metrics = Rb_util.Metrics

module Limits = Rb_util.Limits

type t = { pool : Pool.t; store : Store.t; limit : Limits.t option }

exception Fail of Error.t

let fail code fmt = Printf.ksprintf (fun m -> raise (Fail (Error.make code m))) fmt

let jobs_counter = Metrics.counter ~scope:"serve" "jobs"

let create ?limit ?store ~pool () =
  let store = match store with Some s -> s | None -> Store.create () in
  { pool; store; limit }

let store t = t.store
let pool t = t.pool

let find_benchmark name =
  match Benchmark.find name with
  | b -> b
  | exception Not_found -> fail Error.Unknown_target "unknown benchmark %S" name

(* Everything derived from (benchmark, seed) before binding. *)
type context = {
  benchmark : Benchmark.t;
  schedule : Schedule.t;
  trace : Rb_sim.Trace.t;
  allocation : Allocation.t;
  k : Kmatrix.t;
  profile : Rb_sim.Operands.t;
}

let context name seed =
  let b = find_benchmark name in
  let schedule = Benchmark.schedule b in
  let trace = Benchmark.trace ~seed b in
  (* One golden pass: the profile is the operand columns, and the K
     matrix counts them. *)
  let profile = Rb_sim.Operands.build trace in
  {
    benchmark = b;
    schedule;
    trace;
    allocation = Allocation.for_schedule schedule;
    k = Kmatrix.of_operands profile;
    profile;
  }

(* [n] distinct minterms of [space], in draw order: a duplicate is
   redrawn, so the lock protects exactly [n] minterms, and a draw
   without one keeps its RNG sequence. *)
let distinct_minterms rng ~space n =
  let drawn = Hashtbl.create n in
  let rec draw () =
    let m = Rb_util.Rng.int rng space in
    if Hashtbl.mem drawn m then draw () else (Hashtbl.add drawn m (); m)
  in
  List.init n (fun _ -> draw ())

let build_locked scheme width strength seed =
  let base = Rb_netlist.Circuits.adder ~width in
  let rng = Rb_util.Rng.create seed in
  match (scheme : Job.scheme) with
  | Job.Rll ->
    let bound = Rb_netlist.Lock.max_xor_key_bits base in
    if strength > bound then
      fail Error.Infeasible "rll strength %d exceeds the %d live gates of the %d-bit adder"
        strength bound width;
    Rb_netlist.Lock.xor_random ~rng ~key_bits:strength base
  | Job.Pf ->
    let space = 1 lsl (2 * width) in
    if strength > space then
      fail Error.Infeasible "pf strength %d exceeds the %d input minterms of the %d-bit adder"
        strength space width;
    Rb_netlist.Lock.point_function ~minterms:(distinct_minterms rng ~space strength) base
  | Job.Antisat -> Rb_netlist.Lock.anti_sat ~rng base
  | Job.Permnet -> Rb_netlist.Lock.permutation_network ~rng ~layers:strength base

(* The lock the co-design search works under: [locked_fus] FUs of
   [kind], each locking [minterms_per_fu] of the workload's top
   candidate minterms. Infeasible when the allocation or the candidate
   list cannot hold that shape. *)
let lock_spec allocation k kind ~locked_fus ~minterms_per_fu =
  let fus = Allocation.fu_ids allocation kind in
  if List.length fus < locked_fus then
    fail Error.Infeasible "only %d %s FUs allocated" (List.length fus) (Dfg.kind_label kind);
  let candidates = Codesign.top_candidates k kind in
  if Array.length candidates < minterms_per_fu then
    fail Error.Infeasible "workload too uniform: not enough candidate minterms";
  Codesign.make_spec allocation kind ~locked_fus ~minterms_per_fu candidates

(* ----------------------------------------------------------- pipelines *)

let run_list () =
  let rows =
    List.map
      (fun b ->
        let schedule = Benchmark.schedule b in
        {
          Outcome.name = b.Benchmark.name;
          source = b.Benchmark.source;
          adds = List.length (Dfg.ops_of_kind b.Benchmark.dfg Dfg.Add);
          muls = List.length (Dfg.ops_of_kind b.Benchmark.dfg Dfg.Mul);
          cycles = Schedule.n_cycles schedule;
        })
      (Benchmark.all ())
  in
  let binders = List.map (fun b -> (Binders.name b, Binders.description b)) Binders.all in
  Outcome.Benchmarks { rows; binders }

let run_show ~benchmark ~seed =
  let { benchmark = b; schedule; k; _ } = context benchmark seed in
  let buf = Buffer.create 1024 in
  let f = Format.formatter_of_buffer buf in
  Format.fprintf f "%a@.%a@.source: %s@." Dfg.pp b.Benchmark.dfg Schedule.pp
    schedule b.Benchmark.source;
  Format.fprintf f "workload: top-10 minterms carry %.0f%% of occurrences@.@."
    (100.0 *. Kmatrix.head_mass k ~n:10);
  List.iter
    (fun kind ->
      Format.fprintf f "top %s minterms:@." (Dfg.kind_label kind);
      List.iter
        (fun m ->
          Format.fprintf f "  %a x%d@." Rb_dfg.Minterm.pp m
            (Kmatrix.total_occurrences k m))
        (Kmatrix.top_minterms ~kind k ~n:5))
    [ Dfg.Add; Dfg.Mul ];
  Format.pp_print_flush f ();
  Outcome.Text (Buffer.contents buf)

let run_bind ~benchmark ~seed ~binder ~kind ~locked_fus ~minterms_per_fu =
  let algo =
    match Binders.of_name binder with
    | Some b -> b
    | None -> fail Error.Unknown_target "unknown binder %S" binder
  in
  let { benchmark = b; schedule; trace; allocation; k; profile } = context benchmark seed in
  let spec = lock_spec allocation k kind ~locked_fus ~minterms_per_fu in
  (* The fixed-lock binders bind under the co-designed configuration.
     The codesign binder runs that search itself and binds under no
     a-priori lock, so each job runs the search once. *)
  let config =
    match algo with
    | Binders.Codesign -> Config.make ~scheme:spec.Codesign.scheme ~locks:[]
    | Binders.Area | Binders.Obf | Binders.Power ->
      (Codesign.heuristic k schedule allocation spec).Codesign.config
  in
  let input = { Binders.schedule; allocation; profile; k; config; spec } in
  let { Binders.binding; config } = Binders.bind algo input in
  let report =
    Exec.application_errors schedule trace ~fu_of_op:(Binding.fu_array binding) ~config
  in
  Outcome.Bound
    {
      Outcome.benchmark = b.Benchmark.name;
      binder;
      kind;
      config;
      expected_errors = Cost.expected_errors k binding config;
      report;
      registers = Rb_hls.Registers.count binding;
      switching_rate = Rb_hls.Switching.rate binding profile;
    }

let lint_design ctx locked_fu_count minterms_per_fu min_lambda =
  let { benchmark = b; schedule; allocation; k; _ } = ctx in
  List.filter_map
    (fun kind ->
      let candidates = Codesign.top_candidates k kind in
      if Allocation.fu_ids allocation kind = [] || Array.length candidates = 0 then None
      else begin
        let spec =
          Codesign.make_spec allocation kind ~locked_fus:locked_fu_count ~minterms_per_fu
            candidates
        in
        let sol = Codesign.heuristic k schedule allocation spec in
        Some
          (Rb_lint.Lint.design ?min_lambda ~candidates ~config:sol.Codesign.config
             ~subject:(Printf.sprintf "%s/%s" b.Benchmark.name (Dfg.kind_label kind))
             schedule allocation
             ~fu_of_op:(Binding.fu_array sol.Codesign.binding))
      end)
    [ Dfg.Add; Dfg.Mul ]

let lint_gates seed =
  let rng = Rb_util.Rng.create seed in
  let base = Rb_netlist.Circuits.adder ~width:4 in
  let space = 1 lsl 8 in
  [
    Rb_lint.Lint.netlist ~subject:"adder(4)" base;
    Rb_lint.Lint.netlist ~subject:"multiplier(4)" (Rb_netlist.Circuits.multiplier ~width:4);
    Rb_lint.Lint.locked (Rb_netlist.Lock.xor_random ~rng ~key_bits:4 base);
    Rb_lint.Lint.locked
      (Rb_netlist.Lock.point_function ~minterms:(distinct_minterms rng ~space 2) base);
    Rb_lint.Lint.locked (Rb_netlist.Lock.anti_sat ~rng base);
    Rb_lint.Lint.locked (Rb_netlist.Lock.permutation_network ~rng ~layers:2 base);
  ]

let run_lint t ~benchmark ~seed ~locked_fus ~minterms_per_fu ~min_lambda =
  let benches =
    match benchmark with
    | None -> Benchmark.all ()
    | Some name -> [ find_benchmark name ]
  in
  let design_reports =
    Pool.map_list t.pool
      ~f:(fun b ->
        lint_design (context b.Benchmark.name seed) locked_fus minterms_per_fu min_lambda)
      benches
  in
  let gate_reports = if benchmark = None then lint_gates seed else [] in
  Outcome.Linted (gate_reports @ List.concat design_reports)

let run_analyze t ~scheme ~width ~strength ~seed =
  let locks =
    match scheme with
    | Some s -> [ build_locked s width strength seed ]
    | None -> (
      (* Every scheme that can be built at this width and strength;
         infeasible only when none can. *)
      let feasible s =
        match build_locked s width strength seed with
        | l -> Some l
        | exception Fail { Error.code = Error.Infeasible; _ } -> None
      in
      match List.filter_map feasible [ Job.Rll; Job.Pf; Job.Antisat; Job.Permnet ] with
      | [] ->
        fail Error.Infeasible "no lock scheme can be built at strength %d on the %d-bit adder"
          strength width
      | locks -> locks)
  in
  let reports =
    Pool.map_list t.pool
      ~f:(fun (l : Rb_netlist.Lock.locked) ->
        Rb_analysis.Report.analyze ~subject:l.description l.circuit)
      locks
  in
  Outcome.Analyzed reports

let run_attack t ~limit ~scheme ~width ~strength ~seed ~max_iterations ~portfolio =
  let l = build_locked scheme width strength seed in
  let stats =
    Format.asprintf "%a" Rb_netlist.Netlist.pp_stats l.Rb_netlist.Lock.circuit
  in
  let outcome =
    match
      Rb_sat.Attack.attack_locked ~max_iterations ?limit ~pool:t.pool ~portfolio l
    with
    | Rb_sat.Attack.Broken { key; iterations } ->
      let bits =
        String.init (Array.length key) (fun i -> if key.(i) then '1' else '0')
      in
      Outcome.Broken
        {
          iterations;
          key_correct = Rb_sat.Attack.key_is_correct l key;
          key = bits;
        }
    | Rb_sat.Attack.Budget_exceeded { iterations } ->
      Outcome.Budget_exceeded { iterations }
    | Rb_sat.Attack.Solver_limit { iterations; reason } ->
      (* a deadline or cancel stop never reaches a caller: [run]'s
         during-execution check answers the limit error instead *)
      Outcome.Solver_limit { iterations; reason }
  in
  Outcome.Attacked
    { Outcome.description = l.Rb_netlist.Lock.description; stats; outcome }

let run_custom ~source ~kind ~locked_fus ~minterms_per_fu ~trace_length ~seed =
  let parsed =
    match (source : Job.custom_source) with
    | Job.Expr_source s -> Rb_dfg.Expr.compile s
    | Job.Dfg_source s -> Rb_dfg.Dfg_text.of_string s
  in
  let dfg =
    match parsed with
    | Ok dfg -> dfg
    | Error e -> raise (Fail (Error.make Error.Invalid_request e))
  in
  let schedule = Rb_sched.Scheduler.path_based dfg in
  let allocation = Allocation.for_schedule schedule in
  (* heavy-tailed synthetic workload for the user kernel *)
  let rng = Rb_util.Rng.create seed in
  let palette = [| 0; 3; 16; 64; 128; 255 |] in
  let trace =
    Rb_sim.Trace.generate dfg ~n:trace_length ~f:(fun _ _ ->
        if Rb_util.Rng.int rng 10 < 8 then Rb_util.Rng.pick rng palette
        else Rb_util.Rng.int rng 256)
  in
  let k = Kmatrix.build trace in
  let solution =
    Codesign.heuristic k schedule allocation
      (lock_spec allocation k kind ~locked_fus ~minterms_per_fu)
  in
  let buf = Buffer.create 1024 in
  let f = Format.formatter_of_buffer buf in
  Format.fprintf f "%a@.%a, allocated %a@." Dfg.pp dfg Schedule.pp schedule
    Allocation.pp allocation;
  Format.fprintf f "co-designed locking: %a@." Config.pp
    solution.Codesign.config;
  Format.fprintf f "expected application errors (Eqn. 2): %d over %d samples@."
    solution.Codesign.errors trace_length;
  let baseline = Rb_hls.Area_binding.bind schedule allocation in
  Format.fprintf f "same lock under area-aware binding:   %d@."
    (Cost.expected_errors k baseline solution.Codesign.config);
  Format.pp_print_flush f ();
  Outcome.Text (Buffer.contents buf)

let run_export_cnf ~scheme ~width ~strength ~miter ~seed =
  let l = build_locked scheme width strength seed in
  let d =
    if miter then Rb_sat.Dimacs.miter l.Rb_netlist.Lock.circuit
    else Rb_sat.Dimacs.of_netlist l.Rb_netlist.Lock.circuit
  in
  Outcome.Text
    (Rb_sat.Dimacs.to_string
       ~comments:
         [
           Printf.sprintf "%s on a %d-bit adder%s" l.Rb_netlist.Lock.description width
             (if miter then " (SAT-attack miter)" else "");
         ]
       d)

let execute t ~limit (job : Job.t) =
  match job with
  | Job.List_benchmarks -> run_list ()
  | Job.Show { benchmark; seed } -> run_show ~benchmark ~seed
  | Job.Bind { benchmark; seed; binder; kind; locked_fus; minterms_per_fu } ->
    run_bind ~benchmark ~seed ~binder ~kind ~locked_fus ~minterms_per_fu
  | Job.Lint { benchmark; seed; locked_fus; minterms_per_fu; min_lambda } ->
    run_lint t ~benchmark ~seed ~locked_fus ~minterms_per_fu ~min_lambda
  | Job.Analyze { scheme; width; strength; seed } ->
    run_analyze t ~scheme ~width ~strength ~seed
  | Job.Attack { scheme; width; strength; seed; max_iterations; portfolio } ->
    run_attack t ~limit ~scheme ~width ~strength ~seed ~max_iterations ~portfolio
  | Job.Custom { source; kind; locked_fus; minterms_per_fu; trace_length; seed } ->
    run_custom ~source ~kind ~locked_fus ~minterms_per_fu ~trace_length ~seed
  | Job.Export_cnf { scheme; width; strength; miter; seed } ->
    run_export_cnf ~scheme ~width ~strength ~miter ~seed
  | Job.Export_dfg { benchmark } ->
    let b = find_benchmark benchmark in
    Outcome.Text (Rb_dfg.Dfg_text.to_string b.Benchmark.dfg)
  | Job.Dot { benchmark } ->
    let b = find_benchmark benchmark in
    Outcome.Text (Dfg.to_dot b.Benchmark.dfg)

(* The one volatile-stop rule, for every job. Deadline and cancel
   stops depend on the clock and on who pulled the flag, not on the
   job, so they become structured limit errors — which the store never
   caches — rather than truncated outcomes a later identical request
   would be served from cache. *)
let check_volatile limit ~when_ =
  match Option.bind limit Limits.interrupted with
  | Some Limits.Deadline -> fail Error.Limit "deadline exceeded %s" when_
  | Some Limits.Cancelled -> fail Error.Limit "cancelled %s" when_
  | Some Limits.Conflicts | None -> ()

let run ?deadline_s t job =
  Metrics.incr jobs_counter;
  let limit =
    match deadline_s with
    | None -> t.limit
    | Some d ->
      Some (Limits.with_deadline (Option.value t.limit ~default:Limits.none) d)
  in
  match Job.validate job with
  | Error e -> Error e
  | Ok () -> (
    match
      Store.find_or_compute t.store ~key:(Job.digest job) (fun () ->
          (* A job that spent its whole deadline queued behind a batch
             (or arrived after SIGINT) stops here instead of starting
             work it can no longer finish in time. *)
          check_volatile limit ~when_:"before execution";
          let outcome = execute t ~limit job in
          (* The serve deadline contract: a job that outlives its
             deadline (or a cancel raised while it ran) answers the
             structured limit error, whatever the pipeline produced,
             and that error is never cached. *)
          check_volatile limit ~when_:"during execution";
          outcome)
    with
    | o -> Ok o
    | exception Fail e -> Error e
    | exception e -> Error (Error.make Error.Internal (Printexc.to_string e)))

let run_batch ?deadline_s t jobs =
  Pool.map_array t.pool
    ~f:(fun job ->
      let t0 = Metrics.now_s () in
      let r = run ?deadline_s t job in
      (r, Metrics.now_s () -. t0))
    jobs
