(* The Sec. V-C design methodology, step by step.

   A designer states two goals for the fir accelerator: a minimum
   number of wrong-key error events over the typical workload, and a
   minimum expected SAT-attack effort. The methodology tunes the
   locked-input budget upward from one until the error target is met —
   the smallest corrupting set, hence the most SAT resilience Eqn. 1
   will grant — and reports whether an exponential-iteration-runtime
   scheme (Full-Lock-style permutation network) must be composed on top
   to close a resilience gap, together with what that top-up costs in
   gates.

   Run with: dune exec examples/methodology.exe *)

module Dfg = Rb_dfg.Dfg
module Benchmark = Rb_workload.Benchmark
module Kmatrix = Rb_sim.Kmatrix
module Allocation = Rb_hls.Allocation
module Config = Rb_locking.Config
module Codesign = Rb_core.Codesign
module Methodology = Rb_core.Methodology
module Lock = Rb_netlist.Lock
module Circuits = Rb_netlist.Circuits
module Netlist = Rb_netlist.Netlist
module Table = Rb_util.Table

(* The designer's key budget is fixed at 18 bits per FU (an area
   constraint), so resilience genuinely falls as the locked-input
   budget grows — the Sec. V-C dilemma. *)
let key_budget = 18

let run_goal k schedule allocation spec table ~label goal =
  let plan = Methodology.design ~key_bits:key_budget k schedule allocation spec goal in
  Table.add_text_row table ~label
    ~cells:
      [
        string_of_int goal.Methodology.target_error_events;
        Printf.sprintf "%.0f" goal.Methodology.min_lambda;
        string_of_int plan.Methodology.minterms_per_fu;
        string_of_int plan.Methodology.achieved_errors;
        Rb_core.Render.fmt_lambda plan.Methodology.predicted_lambda;
        (if plan.Methodology.exponential_topup then "yes" else "no");
      ];
  plan

let () =
  let bench = Benchmark.find "fir" in
  let schedule = Benchmark.schedule bench in
  let trace = Benchmark.trace bench in
  let allocation = Allocation.for_schedule schedule in
  let k = Kmatrix.build trace in
  (* One locked adder; the budget may grow to the whole candidate list. *)
  let spec =
    Codesign.make_spec allocation Dfg.Add ~locked_fus:1 ~minterms_per_fu:Codesign.n_candidates
      (Codesign.top_candidates k Dfg.Add)
  in
  Format.printf "%a over a %d-sample typical workload@.@." Dfg.pp bench.Benchmark.dfg
    (Rb_sim.Trace.length trace);

  let table =
    Table.create ~title:"Sec. V-C: minimum locked inputs meeting each error target"
      ~columns:
        [ "target errors"; "min lambda"; "chosen |M|"; "achieved"; "lambda"; "needs top-up" ]
  in
  let goals =
    [
      ("modest", { Methodology.target_error_events = 50; min_lambda = 1_000.0 });
      ("demanding", { Methodology.target_error_events = 1_200; min_lambda = 1_000.0 });
      ("extreme", { Methodology.target_error_events = 1_200; min_lambda = 1e7 });
    ]
  in
  let plans =
    List.map
      (fun (label, goal) -> run_goal k schedule allocation spec table ~label goal)
      goals
  in
  Table.print table;
  print_newline ();

  (* When a plan flags a resilience gap, Sec. V-C composes an
     exponential-SAT-runtime scheme on top. Quantify that premium on
     the adder FU the plan locked. *)
  (match List.find_opt (fun p -> p.Methodology.exponential_topup) plans with
   | None -> print_endline "All goals met by critical-minterm locking alone."
   | Some plan ->
     Format.printf
       "A goal leaves a resilience gap (lambda %.0f below its target):@."
       plan.Methodology.predicted_lambda;
     let base = Circuits.adder ~width:8 in
     let rng = Rb_util.Rng.create 7 in
     let table =
       Table.create ~title:"Full-Lock-style top-up cost on the locked 8-bit adder FU"
         ~columns:[ "key bits"; "extra gates"; "gate overhead" ]
     in
     List.iter
       (fun layers ->
         let locked = Lock.permutation_network ~rng ~layers base in
         Table.add_text_row table ~label:(Printf.sprintf "%d swap layers" layers)
           ~cells:
             [
               string_of_int (Netlist.n_keys locked.Lock.circuit);
               string_of_int (Netlist.n_gates locked.Lock.circuit - Netlist.n_gates base);
               Printf.sprintf "+%.0f%%" (100.0 *. Lock.gate_overhead locked ~baseline:base);
             ])
       [ 2; 4; 8; 16 ];
     Table.print table;
     print_endline
       "\nThe permutation network's overhead grows linearly in layers (the paper\n\
        quotes +61% area / +192% power for 384-bit Full-Lock on b14) - which is\n\
        why the methodology spends cheap critical-minterm resilience first and\n\
        tops up only the remainder.")
