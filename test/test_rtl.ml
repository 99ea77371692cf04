module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Scheduler = Rb_sched.Scheduler
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Registers = Rb_hls.Registers
module Benchmark = Rb_workload.Benchmark
module Datapath = Rb_rtl.Datapath
module Rtl_sim = Rb_rtl.Rtl_sim
module Verilog = Rb_rtl.Verilog
module Testgen = Rb_testsupport.Testgen

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* ----------------------------------------------------------- datapath *)

let fig2_datapath () =
  let dfg = Testgen.fig2_dfg () in
  let schedule = Testgen.fig2_schedule dfg in
  let allocation = { Allocation.adders = 3; multipliers = 0 } in
  let binding = Binding.make schedule allocation ~fu_of_op:[| 0; 1; 0; 1; 2 |] in
  (binding, Datapath.build binding)

let test_build_validates () =
  let _, dp = fig2_datapath () in
  match Datapath.validate dp with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_register_count_matches_cost_model () =
  let binding, dp = fig2_datapath () in
  Alcotest.(check int) "datapath registers = cost model"
    (Registers.count binding) (Datapath.n_registers dp)

let test_every_op_issued_once () =
  let binding, dp = fig2_datapath () in
  let dfg = Schedule.dfg (Binding.schedule binding) in
  let issued = List.map (fun (i : Datapath.issue) -> i.Datapath.op) (Datapath.issues dp) in
  Alcotest.(check (list int)) "all ops issued"
    (List.init (Dfg.op_count dfg) Fun.id)
    (List.sort Int.compare issued)

let test_issue_matches_binding () =
  let binding, dp = fig2_datapath () in
  let schedule = Binding.schedule binding in
  List.iter
    (fun (i : Datapath.issue) ->
      Alcotest.(check int) "fu agrees" (Binding.fu_of_op binding i.Datapath.op) i.Datapath.fu;
      Alcotest.(check int) "cycle agrees"
        (Schedule.cycle_of schedule i.Datapath.op)
        i.Datapath.cycle)
    (Datapath.issues dp)

let test_mux_inputs_positive_when_shared () =
  let _, dp = fig2_datapath () in
  (* FU0 runs OPA then OPC with different sources: muxing needed. *)
  Alcotest.(check bool) "mux fan-in positive" true (Datapath.mux_inputs dp > 0)

(* ------------------------------------------------------------ rtl sim *)

let all_binders schedule allocation trace =
  let profile = Rb_sim.Operands.build trace in
  [
    ("area", Rb_hls.Area_binding.bind schedule allocation);
    ("power", Rb_hls.Power_binding.bind schedule allocation ~profile);
  ]

let test_rtl_sim_matches_dataflow_on_benchmarks () =
  List.iter
    (fun b ->
      let schedule = Benchmark.schedule b in
      let trace = Benchmark.trace ~length:32 b in
      let allocation = Allocation.for_schedule schedule in
      List.iter
        (fun (binder, binding) ->
          let dp = Datapath.build binding in
          (match Datapath.validate dp with
           | Ok () -> ()
           | Error e -> Alcotest.failf "%s/%s: invalid datapath: %s" b.Benchmark.name binder e);
          match Rtl_sim.check_trace dp trace with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s/%s: %s" b.Benchmark.name binder e)
        (all_binders schedule allocation trace))
    (Benchmark.all ())

let test_rtl_sim_matches_dataflow_obf_binding () =
  (* The security-aware binding must also produce a correct datapath —
     scattering producer/consumer chains stresses the register
     allocator hardest. *)
  let b = Benchmark.find "dct" in
  let schedule = Benchmark.schedule b in
  let trace = Benchmark.trace ~length:32 b in
  let allocation = Allocation.for_schedule schedule in
  let k = Rb_sim.Kmatrix.build trace in
  let candidates = Array.of_list (Rb_sim.Kmatrix.top_minterms ~kind:Dfg.Mul k ~n:4) in
  let config =
    Rb_locking.Config.make ~scheme:Rb_locking.Scheme.Sfll_rem
      ~locks:[ (allocation.Allocation.adders, Array.to_list candidates) ]
  in
  let binding = Rb_core.Obf_binding.bind k config schedule allocation in
  let dp = Datapath.build binding in
  match Rtl_sim.check_trace dp trace with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_rtl_sim_rejects_foreign_trace () =
  let _, dp = fig2_datapath () in
  let other = Benchmark.trace ~length:4 (Benchmark.find "fir") in
  match Rtl_sim.run dp other ~sample:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign trace accepted"

(* ------------------------------------------------------------ verilog *)

let test_verilog_structure () =
  let binding, dp = fig2_datapath () in
  let schedule = Binding.schedule binding in
  let dfg = Schedule.dfg schedule in
  let v = Verilog.emit dp in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " present") true (contains ~affix v))
    ([ "module fig2"; "endmodule"; "input clk"; "always @(posedge clk)"; "case (cycle)" ]
     @ List.map (fun i -> Printf.sprintf "input [7:0] %s" i) (Dfg.inputs dfg)
     @ List.mapi (fun idx _ -> Printf.sprintf "output [7:0] out%d" idx) (Dfg.outputs dfg))

let test_verilog_register_declarations () =
  let _, dp = fig2_datapath () in
  let v = Verilog.emit dp in
  for r = 0 to Datapath.n_registers dp - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "r%d declared" r)
      true
      (contains ~affix:(Printf.sprintf "reg [7:0] r%d;" r) v)
  done

let test_verilog_custom_module_name () =
  let _, dp = fig2_datapath () in
  Alcotest.(check bool) "named after the DFG" true
    (contains ~affix:"module fig2 (" (Verilog.emit dp))

let test_verilog_emits_for_all_benchmarks () =
  List.iter
    (fun b ->
      let schedule = Benchmark.schedule b in
      let allocation = Allocation.for_schedule schedule in
      let binding = Rb_hls.Area_binding.bind schedule allocation in
      let dp = Datapath.build binding in
      let v = Verilog.emit dp in
      Alcotest.(check bool) (b.Benchmark.name ^ " emits a module") true
        (contains ~affix:"endmodule" v);
      (* every allocated register appears *)
      for r = 0 to Datapath.n_registers dp - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s r%d" b.Benchmark.name r)
          true
          (contains ~affix:(Printf.sprintf "reg [7:0] r%d;" r) v)
      done)
    (Benchmark.all ())

let test_verilog_deterministic () =
  let _, dp = fig2_datapath () in
  Alcotest.(check string) "same text" (Verilog.emit dp) (Verilog.emit dp)

(* ---------------------------------------------------------- properties *)

let qcheck_datapath_correct_on_random_dfgs =
  QCheck2.Test.make ~name:"datapath simulates like the dataflow on random DFGs" ~count:40
    QCheck2.Gen.(pair (int_range 0 5_000) (int_range 0 500))
    (fun (seed, bseed) ->
      let dfg = Testgen.random_dfg seed ~n_ops:(8 + (seed mod 18)) in
      let schedule = Scheduler.path_based dfg in
      let allocation = Allocation.for_schedule schedule in
      let binding = Testgen.random_valid_binding bseed schedule allocation in
      let dp = Datapath.build binding in
      let trace = Testgen.skewed_trace (seed + 7) dfg ~n:8 in
      Result.is_ok (Datapath.validate dp) && Result.is_ok (Rtl_sim.check_trace dp trace))

let qcheck_register_count_always_matches =
  QCheck2.Test.make ~name:"left-edge meets the max-overlap bound" ~count:60
    QCheck2.Gen.(pair (int_range 0 5_000) (int_range 0 500))
    (fun (seed, bseed) ->
      let dfg = Testgen.random_dfg seed ~n_ops:16 in
      let schedule = Scheduler.path_based dfg in
      let allocation = Allocation.for_schedule schedule in
      let binding = Testgen.random_valid_binding bseed schedule allocation in
      Datapath.n_registers (Datapath.build binding) = Registers.count binding)

let () =
  Alcotest.run "rb_rtl"
    [
      ( "datapath",
        [
          Alcotest.test_case "validates" `Quick test_build_validates;
          Alcotest.test_case "register count" `Quick test_register_count_matches_cost_model;
          Alcotest.test_case "ops issued once" `Quick test_every_op_issued_once;
          Alcotest.test_case "matches binding" `Quick test_issue_matches_binding;
          Alcotest.test_case "mux fan-in" `Quick test_mux_inputs_positive_when_shared;
        ] );
      ( "rtl-sim",
        [
          Alcotest.test_case "benchmarks x binders" `Slow
            test_rtl_sim_matches_dataflow_on_benchmarks;
          Alcotest.test_case "obf binding" `Quick test_rtl_sim_matches_dataflow_obf_binding;
          Alcotest.test_case "foreign trace" `Quick test_rtl_sim_rejects_foreign_trace;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "registers declared" `Quick test_verilog_register_declarations;
          Alcotest.test_case "module name" `Quick test_verilog_custom_module_name;
          Alcotest.test_case "deterministic" `Quick test_verilog_deterministic;
          Alcotest.test_case "all benchmarks" `Quick test_verilog_emits_for_all_benchmarks;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_datapath_correct_on_random_dfgs; qcheck_register_count_always_matches ] );
    ]
