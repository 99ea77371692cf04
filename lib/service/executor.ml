module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Benchmark = Rb_workload.Benchmark
module Kmatrix = Rb_sim.Kmatrix
module Exec = Rb_sim.Exec
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Config = Rb_locking.Config
module Scheme = Rb_locking.Scheme
module Binders = Rb_core.Binders
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
  profile : Rb_hls.Profile.t;
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
    let minterms = List.init strength (fun _ -> Rb_util.Rng.int rng space) in
    Rb_netlist.Lock.point_function ~minterms base
  | Job.Antisat -> Rb_netlist.Lock.anti_sat ~rng base
  | Job.Permnet -> Rb_netlist.Lock.permutation_network ~rng ~layers:strength base

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
  Outcome.Shown (Buffer.contents buf)

let run_bind ~benchmark ~seed ~binder ~kind ~locked_fus:locked_fu_count
    ~minterms_per_fu =
  let algo =
    match Binders.of_name binder with
    | Some b -> b
    | None -> fail Error.Unknown_target "unknown binder %S" binder
  in
  let { benchmark = b; schedule; trace; allocation; k; profile } = context benchmark seed in
  let fus = Allocation.fu_ids allocation kind in
  if List.length fus < locked_fu_count then
    fail Error.Infeasible "only %d %s FUs allocated" (List.length fus)
      (Dfg.kind_label kind);
  let candidates = Array.of_list (Kmatrix.top_minterms ~kind k ~n:10) in
  if Array.length candidates < minterms_per_fu then
    fail Error.Infeasible "workload too uniform: not enough candidate minterms";
  let locked_fus = List.filteri (fun i _ -> i < locked_fu_count) fus in
  let spec =
    { Rb_core.Codesign.scheme = Scheme.Sfll_rem; locked_fus; minterms_per_fu; candidates }
  in
  (* The co-designed configuration seeds input.config; binders with a
     fixed a-priori lock bind under it, the codesign binder re-derives
     its search spec from its shape. *)
  let codesigned = Rb_core.Codesign.heuristic k schedule allocation spec in
  let input =
    { Binders.schedule; allocation; profile; k;
      config = codesigned.Rb_core.Codesign.config; candidates }
  in
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
      let fus = Allocation.fu_ids allocation kind in
      let candidates = Array.of_list (Kmatrix.top_minterms ~kind k ~n:10) in
      if fus = [] || Array.length candidates = 0 then None
      else begin
        let n_locked = min locked_fu_count (List.length fus) in
        let spec =
          { Rb_core.Codesign.scheme = Scheme.Sfll_rem;
            locked_fus = List.filteri (fun i _ -> i < n_locked) fus;
            minterms_per_fu = min minterms_per_fu (Array.length candidates);
            candidates }
        in
        let sol = Rb_core.Codesign.heuristic k schedule allocation spec in
        let binding = sol.Rb_core.Codesign.binding in
        Some
          (Rb_lint.Lint.design ?min_lambda ~candidates
             ~config:sol.Rb_core.Codesign.config
             ~registers:(Rb_hls.Registers.count binding)
             ~transfers:(Rb_lint.Hls_rules.transfer_count binding)
             ~subject:(Printf.sprintf "%s/%s" b.Benchmark.name (Dfg.kind_label kind))
             schedule allocation ~fu_of_op:(Binding.fu_array binding))
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
      (Rb_netlist.Lock.point_function
         ~minterms:[ Rb_util.Rng.int rng space; Rb_util.Rng.int rng space ]
         base);
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

let run_analyze t ~limit ~scheme ~width ~strength ~seed =
  let schemes =
    match scheme with
    | None -> [ Job.Rll; Job.Pf; Job.Antisat; Job.Permnet ]
    | Some s -> [ s ]
  in
  let reports =
    Pool.map_list t.pool
      ~f:(fun s ->
        let l = build_locked s width strength seed in
        Rb_analysis.Report.analyze ?limit ~subject:l.Rb_netlist.Lock.description
          l.Rb_netlist.Lock.circuit)
      schemes
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
    | Rb_sat.Attack.Solver_limit { iterations; reason = Limits.Deadline } ->
      (* A wall-clock stop depends on when the job ran, not on what it
         was; surface the structured limit error (never cached)
         instead of an outcome the store would replay to later
         requests with laxer deadlines. *)
      fail Error.Limit "attack stopped by deadline after %d DIP iterations" iterations
    | Rb_sat.Attack.Solver_limit { iterations; reason = Limits.Cancelled } ->
      fail Error.Limit "attack cancelled after %d DIP iterations" iterations
    | Rb_sat.Attack.Solver_limit { iterations; reason } ->
      Outcome.Solver_limit { iterations; reason }
  in
  Outcome.Attacked
    { Outcome.description = l.Rb_netlist.Lock.description; stats; outcome }

let run_custom ~source ~kind ~locked_fus:locked_fu_count ~minterms_per_fu
    ~trace_length ~seed =
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
  let fus = Allocation.fu_ids allocation kind in
  let candidates = Array.of_list (Kmatrix.top_minterms ~kind k ~n:10) in
  if List.length fus < locked_fu_count then
    fail Error.Infeasible "only %d %s FUs allocated" (List.length fus)
      (Dfg.kind_label kind);
  if Array.length candidates < minterms_per_fu then
    fail Error.Infeasible "not enough candidate minterms in the synthesized workload";
  let spec =
    { Rb_core.Codesign.scheme = Scheme.Sfll_rem;
      locked_fus = List.filteri (fun i _ -> i < locked_fu_count) fus;
      minterms_per_fu; candidates }
  in
  let solution = Rb_core.Codesign.heuristic k schedule allocation spec in
  let buf = Buffer.create 1024 in
  let f = Format.formatter_of_buffer buf in
  Format.fprintf f "%a@.%a, allocated %a@." Dfg.pp dfg Schedule.pp schedule
    Allocation.pp allocation;
  Format.fprintf f "co-designed locking: %a@." Config.pp
    solution.Rb_core.Codesign.config;
  Format.fprintf f "expected application errors (Eqn. 2): %d over %d samples@."
    solution.Rb_core.Codesign.errors trace_length;
  let baseline = Rb_hls.Area_binding.bind schedule allocation in
  Format.fprintf f "same lock under area-aware binding:   %d@."
    (Cost.expected_errors k baseline solution.Rb_core.Codesign.config);
  Format.pp_print_flush f ();
  Outcome.Custom_report (Buffer.contents buf)

let run_export_cnf ~scheme ~width ~strength ~miter ~seed =
  let l = build_locked scheme width strength seed in
  let d =
    if miter then Rb_sat.Dimacs.miter l.Rb_netlist.Lock.circuit
    else Rb_sat.Dimacs.of_netlist l.Rb_netlist.Lock.circuit
  in
  Outcome.Exported
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
    run_analyze t ~limit ~scheme ~width ~strength ~seed
  | Job.Attack { scheme; width; strength; seed; max_iterations; portfolio } ->
    run_attack t ~limit ~scheme ~width ~strength ~seed ~max_iterations ~portfolio
  | Job.Custom { source; kind; locked_fus; minterms_per_fu; trace_length; seed } ->
    run_custom ~source ~kind ~locked_fus ~minterms_per_fu ~trace_length ~seed
  | Job.Export_cnf { scheme; width; strength; miter; seed } ->
    run_export_cnf ~scheme ~width ~strength ~miter ~seed
  | Job.Export_dfg { benchmark } ->
    let b = find_benchmark benchmark in
    Outcome.Exported (Rb_dfg.Dfg_text.to_string b.Benchmark.dfg)
  | Job.Dot { benchmark } ->
    let b = find_benchmark benchmark in
    Outcome.Exported (Dfg.to_dot b.Benchmark.dfg)

(* The wall-clock half of the limit checks. Deadline and cancel stops
   depend on the clock and on who pulled the flag, not on the job, so
   they become structured limit errors — which the store never caches —
   rather than truncated outcomes a later identical request would be
   served from cache. *)
let volatile_stop limit =
  match limit with
  | None -> None
  | Some l -> (
    match Limits.interrupted l with
    | Some Limits.Deadline -> Some "deadline exceeded"
    | Some Limits.Cancelled -> Some "cancelled"
    | Some _ | None -> None)

let check_volatile limit ~when_ =
  match volatile_stop limit with
  | Some what -> fail Error.Limit "%s %s" what when_
  | None -> ()

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
          (* Pipelines that degrade in place (analysis marking itself
             stopped) rather than reporting a reason: a volatile stop
             during the run means the outcome may be truncated, so
             refuse to cache or return it. *)
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
