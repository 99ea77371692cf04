(* bindlock — command-line front end to the resource-binding
   obfuscation library.

     bindlock list                    benchmarks and their shapes
     bindlock show -b dct             schedule + workload statistics
     bindlock bind -b dct ...         bind/lock one benchmark, report errors
     bindlock lint                    design-rule check benchmarks + lock gadgets
     bindlock analyze                 static vulnerability report for lock schemes
     bindlock attack ...              run the SAT attack on a locked adder
     bindlock dot -b dct             Graphviz dump of the DFG
     bindlock serve                   NDJSON job daemon over stdin or a socket

   Every subcommand is a thin client of Rb_service: parse flags into a
   Job.t, run it on an Executor, render the Outcome. The pipeline
   wiring lives in lib/service; nothing here touches the binding,
   locking or attack code directly. *)

module Dfg = Rb_dfg.Dfg
module Benchmark = Rb_workload.Benchmark
module Binders = Rb_core.Binders
module Pool = Rb_util.Pool
module Limits = Rb_util.Limits
module Job = Rb_service.Job
module Error = Rb_service.Error
module Executor = Rb_service.Executor
module Store = Rb_service.Store
module Outcome = Rb_service.Outcome
module Render = Rb_service.Render
module Serve = Rb_service.Serve
open Cmdliner

let benchmark_arg =
  let doc = "Benchmark name (one of: " ^ String.concat ", " (Benchmark.names ()) ^ ")." in
  Arg.(required & opt (some string) None & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let seed_arg =
  Arg.(value & opt int 1789 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let format_arg =
  let fmt = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(value & opt fmt `Text & info [ "format" ] ~docv:"FMT"
         ~doc:"Report format: text or json.")

let jobs_arg =
  Arg.(value & opt int (Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for parallel work (default: available cores; 1 runs \
               everything inline).")

(* Every subcommand's body: one job, one executor, the outcome printed
   in [format], then [verdict] decides the exit status of a printed
   outcome (lint errors, --fail-on-inferable). Commands with their own
   --jobs flag pass it through; everything else runs a 1-job pool
   (inline, no domains). An attack line's wall time spans the whole
   run. *)
let run_job ?(jobs = 1) ?(verdict = fun _ -> Ok ()) format job =
  let t0 = Rb_util.Metrics.now_s () in
  match Pool.with_pool ~jobs (fun pool -> Executor.run (Executor.create ~pool ()) job) with
  | Error e -> Error (`Msg e.Error.message)
  | Ok outcome ->
    Render.print ~attack_wall_s:(Rb_util.Metrics.now_s () -. t0) format outcome;
    verdict outcome

(* ---------------------------------------------------------------- list *)

let list_cmd =
  let run format = run_job format Job.List_benchmarks in
  Cmd.v
    (Cmd.info "list" ~doc:"List the benchmark suite and the registered binders.")
    Term.(term_result (const run $ format_arg))

(* ---------------------------------------------------------------- show *)

let show_cmd =
  let run name seed = run_job `Text (Job.Show { benchmark = name; seed }) in
  Cmd.v
    (Cmd.info "show" ~doc:"Schedule and workload statistics of one benchmark.")
    Term.(term_result (const run $ benchmark_arg $ seed_arg))

(* ---------------------------------------------------------------- bind *)

let binder_arg =
  let names = List.map Binders.name Binders.all in
  let algo = Arg.enum (List.map (fun n -> (n, n)) names) in
  Arg.(value & opt algo "codesign" & info [ "binder" ] ~docv:"ALGO"
         ~doc:("Binding algorithm: " ^ String.concat ", " names ^ "."))

let kind_arg =
  let op_kind = Arg.enum (List.map (fun k -> (Dfg.kind_label k, k)) [ Dfg.Add; Dfg.Mul ]) in
  Arg.(value & opt op_kind Dfg.Mul & info [ "kind" ] ~docv:"KIND"
         ~doc:"Operation kind whose FUs are locked (add or mul).")

let locked_fus_arg =
  Arg.(value & opt int 2 & info [ "locked-fus" ] ~docv:"N" ~doc:"Number of locked FUs.")

let minterms_arg =
  Arg.(value & opt int 2 & info [ "minterms" ] ~docv:"M" ~doc:"Locked inputs per FU.")

let bind_cmd =
  let run name seed binder kind locked_fus minterms_per_fu format =
    run_job format
      (Job.Bind { benchmark = name; seed; binder; kind; locked_fus; minterms_per_fu })
  in
  Cmd.v
    (Cmd.info "bind" ~doc:"Bind and lock one benchmark; report error and overhead.")
    Term.(term_result
            (const run $ benchmark_arg $ seed_arg $ binder_arg $ kind_arg
             $ locked_fus_arg $ minterms_arg $ format_arg))

(* ---------------------------------------------------------------- lint *)

let lint_cmd =
  let bench_arg =
    Arg.(value & opt (some string) None & info [ "b"; "benchmark" ] ~docv:"NAME"
           ~doc:"Lint a single benchmark (default: the whole suite plus the \
                 gate-level lock constructions).")
  in
  let min_lambda_arg =
    Arg.(value & opt (some float) None & info [ "min-lambda" ] ~docv:"L"
           ~doc:"SAT-resilience target: error when a locked FU's predicted Eqn. 1 \
                 iterations fall below $(docv).")
  in
  let verdict outcome =
    let reports = match outcome with Outcome.Linted reports -> reports | _ -> [] in
    match Rb_lint.Report.total_errors reports with
    | 0 -> Ok ()
    | n ->
      Error (`Msg (Printf.sprintf "lint: %d error%s in %d subject%s" n
                     (if n = 1 then "" else "s")
                     (List.length reports)
                     (if List.length reports = 1 then "" else "s")))
  in
  let run bench seed locked_fus minterms_per_fu min_lambda format jobs =
    run_job ~jobs ~verdict format
      (Job.Lint { benchmark = bench; seed; locked_fus; minterms_per_fu; min_lambda })
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Design-rule check: netlist, binding and locking-config rules over the \
             benchmark suite (non-zero exit on errors).")
    Term.(term_result
            (const run $ bench_arg $ seed_arg $ locked_fus_arg $ minterms_arg
             $ min_lambda_arg $ format_arg $ jobs_arg))

(* -------------------------------------------------------------- attack *)

let attack_scheme_arg =
  let scheme_kind =
    Arg.enum (List.map (fun s -> (Job.scheme_label s, s)) [ Job.Rll; Job.Pf; Job.Permnet ])
  in
  Arg.(value & opt scheme_kind Job.Pf & info [ "scheme" ] ~docv:"SCHEME"
         ~doc:"Locking scheme: rll, pf (point function), or permnet.")

let width_arg =
  Arg.(value & opt int 4 & info [ "width" ] ~docv:"W" ~doc:"Adder operand width in bits.")

let attack_cmd =
  let strength_arg =
    Arg.(value & opt int 2 & info [ "strength" ] ~docv:"S"
           ~doc:"Key gates (rll), protected minterms (pf), or layers (permnet).")
  in
  let portfolio_arg =
    Arg.(value & opt int 1 & info [ "portfolio" ] ~docv:"N"
           ~doc:"Racing solver configurations per miter round (1-64), clamped to \
                 the --jobs worker count. The reported attack result is identical \
                 for every portfolio size and --jobs value; larger portfolios only \
                 race the hard solves.")
  in
  let run scheme width strength seed format jobs portfolio =
    run_job ~jobs format
      (Job.Attack { scheme; width; strength; seed; max_iterations = 20_000; portfolio })
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run the oracle-guided SAT attack on a locked adder.")
    Term.(term_result
            (const run $ attack_scheme_arg $ width_arg $ strength_arg $ seed_arg
             $ format_arg $ jobs_arg $ portfolio_arg))

(* ------------------------------------------------------------- analyze *)

let analyze_cmd =
  let scheme_kind =
    Arg.enum
      (("all", None)
      :: List.map (fun s -> (Job.scheme_label s, Some s))
           [ Job.Rll; Job.Pf; Job.Antisat; Job.Permnet ])
  in
  let scheme_arg =
    Arg.(value & opt scheme_kind None & info [ "scheme" ] ~docv:"SCHEME"
           ~doc:"Scheme to analyze: rll, pf, antisat, permnet, or all. With all \
                 (the default), schemes that cannot be built at the given width and \
                 strength are left out; the job fails only when none can be built.")
  in
  let strength_arg =
    Arg.(value & opt int 4 & info [ "strength" ] ~docv:"S"
           ~doc:"Key gates (rll), protected minterms (pf), or layers (permnet).")
  in
  let fail_arg =
    Arg.(value & flag & info [ "fail-on-inferable" ]
           ~doc:"Exit non-zero when any analyzed design has statically inferable \
                 key bits (CI guard for SAT-hard schemes).")
  in
  let verdict fail_on_inferable outcome =
    let reports = match outcome with Outcome.Analyzed reports -> reports | _ -> [] in
    let inferable =
      List.fold_left (fun acc r -> acc + List.length r.Rb_analysis.Report.inferable) 0 reports
    in
    if fail_on_inferable && inferable > 0 then
      Error (`Msg (Printf.sprintf "analyze: %d key bit%s statically inferable"
                     inferable (if inferable = 1 then "" else "s")))
    else Ok ()
  in
  let run scheme width strength seed format jobs fail_on_inferable =
    run_job ~jobs ~verdict:(verdict fail_on_inferable) format
      (Job.Analyze { scheme; width; strength; seed })
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static vulnerability report for locked designs: oracle-less key \
             inference, probability skew, dead logic and key observability.")
    Term.(term_result
            (const run $ scheme_arg $ width_arg $ strength_arg $ seed_arg
             $ format_arg $ jobs_arg $ fail_arg))

(* -------------------------------------------------------------- custom *)

let custom_cmd =
  let file_arg =
    Arg.(required & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE"
           ~doc:"Kernel in the DFG text format, or behavioural expression code \
                 when the file ends in .expr (see lib/dfg/expr.mli).")
  in
  let trace_len_arg =
    Arg.(value & opt int 256 & info [ "trace-length" ] ~docv:"N"
           ~doc:"Synthesized workload length (heavy-tailed generator).")
  in
  let run file kind locked_fus minterms_per_fu trace_length seed =
    let contents =
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let source =
      if Filename.check_suffix file ".expr" then Job.Expr_source contents
      else Job.Dfg_source contents
    in
    run_job `Text (Job.Custom { source; kind; locked_fus; minterms_per_fu; trace_length; seed })
  in
  Cmd.v
    (Cmd.info "custom" ~doc:"Co-design binding/locking for a user kernel in DFG text format.")
    Term.(term_result
            (const run $ file_arg $ kind_arg $ locked_fus_arg $ minterms_arg
             $ trace_len_arg $ seed_arg))

(* ---------------------------------------------------------- export-dfg *)

let export_dfg_cmd =
  let run name = run_job `Text (Job.Export_dfg { benchmark = name }) in
  Cmd.v
    (Cmd.info "export-dfg"
       ~doc:"Print a benchmark in the DFG text format (a template for 'custom').")
    Term.(term_result (const run $ benchmark_arg))

(* ---------------------------------------------------------- export-cnf *)

let export_cnf_cmd =
  let strength_arg =
    Arg.(value & opt int 2 & info [ "strength" ] ~docv:"S"
           ~doc:"Key gates (rll), protected minterms (pf), or layers (permnet).")
  in
  let miter_arg =
    Arg.(value & flag & info [ "miter" ]
           ~doc:"Emit the two-copy SAT-attack miter instead of a single copy.")
  in
  let run scheme width strength miter seed =
    run_job `Text (Job.Export_cnf { scheme; width; strength; miter; seed })
  in
  Cmd.v
    (Cmd.info "export-cnf" ~doc:"Emit a locked adder (or its attack miter) as DIMACS CNF.")
    Term.(term_result
            (const run $ attack_scheme_arg $ width_arg $ strength_arg $ miter_arg
             $ seed_arg))

(* ----------------------------------------------------------------- dot *)

let dot_cmd =
  let run name = run_job `Text (Job.Dot { benchmark = name }) in
  Cmd.v
    (Cmd.info "dot" ~doc:"Print the benchmark's DFG in Graphviz format.")
    Term.(term_result (const run $ benchmark_arg))

(* --------------------------------------------------------------- serve *)

let serve_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv) instead of serving \
                 stdin/stdout.")
  in
  let batch_arg =
    Arg.(value & opt (some int) None & info [ "batch" ] ~docv:"N"
           ~doc:"Greedy batch cap per dispatch (default: 4x the worker count).")
  in
  let store_cap_arg =
    Arg.(value & opt (some int) None & info [ "store-cap" ] ~docv:"MB"
           ~doc:"Bound the job-outcome cache to $(docv) megabytes; the \
                 least-recently-used outcomes are evicted when an insert \
                 overflows the cap (default: unbounded).")
  in
  let max_inflight_arg =
    Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Shed requests over $(docv) concurrently running jobs with a \
                 structured 'overloaded' error (default: no cap).")
  in
  let run jobs socket batch_size store_cap_mb max_inflight =
    (match store_cap_mb with
    | Some mb when mb < 1 -> Error (`Msg "--store-cap must be at least 1 MB")
    | _ -> (
      match max_inflight with
      | Some n when n < 1 -> Error (`Msg "--max-inflight must be at least 1")
      | _ ->
        let cancel = Limits.new_cancel () in
        let drain = Atomic.make false in
        Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Limits.cancel cancel));
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set drain true));
        (if Sys.unix then
           try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
           with Invalid_argument _ -> ());
        let stop =
          Pool.with_pool ~jobs (fun pool ->
              let limit = Limits.make ~cancel () in
              let store =
                match store_cap_mb with
                | None -> Store.create ()
                | Some mb -> Store.create ~cap_bytes:(mb * 1024 * 1024) ()
              in
              let executor = Executor.create ~limit ~store ~pool () in
              match socket with
              | Some path ->
                Serve.run_socket ~executor ~cancel ~drain ?batch_size ?max_inflight
                  ~path ()
              | None ->
                let admission = Option.map Serve.Admission.create max_inflight in
                Serve.run ~executor ~cancel ~drain ?batch_size ?admission
                  ~input:Unix.stdin ~output:stdout ())
        in
        match stop with
        | Serve.Eof | Serve.Drained -> Ok ()
        | Serve.Cancelled -> exit 130))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve rb-job/1 requests as newline-delimited JSON: one job per input \
             line, one rb-result/1 line per job, dispatched in batches over the \
             worker pool with a content-addressed result cache. Socket mode serves \
             each connection on its own thread. SIGTERM drains in-flight work and \
             exits 0; SIGINT cancels it and exits 130.")
    Term.(term_result
            (const run $ jobs_arg $ socket_arg $ batch_arg $ store_cap_arg
             $ max_inflight_arg))

let () =
  let info =
    Cmd.info "bindlock" ~version:"1.0.0"
      ~doc:"Security-aware resource binding for logic obfuscation (DAC'21 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; show_cmd; bind_cmd; lint_cmd; analyze_cmd; custom_cmd;
            attack_cmd; export_cnf_cmd; export_dfg_cmd; dot_cmd; serve_cmd ]))
