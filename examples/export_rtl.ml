(* From behavioural kernel to locked Verilog.

   The full back half of the flow: take a benchmark, co-design its
   binding and locking, elaborate the bound schedule into a datapath
   (registers by left-edge allocation, operand muxes, control
   schedule), check the RTL against the dataflow semantics cycle by
   cycle, and print the resulting Verilog module.

   Run with: dune exec examples/export_rtl.exe [benchmark]      *)

module Dfg = Rb_dfg.Dfg
module Benchmark = Rb_workload.Benchmark
module Kmatrix = Rb_sim.Kmatrix
module Allocation = Rb_hls.Allocation
module Datapath = Rb_rtl.Datapath
module Rtl_sim = Rb_rtl.Rtl_sim
module Verilog = Rb_rtl.Verilog

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fir" in
  let bench =
    match Benchmark.find name with
    | b -> b
    | exception Not_found ->
      Printf.eprintf "unknown benchmark %S; try one of: %s\n" name
        (String.concat ", " (Benchmark.names ()));
      exit 1
  in
  let schedule = Benchmark.schedule bench in
  let trace = Benchmark.trace ~length:64 bench in
  let allocation = Allocation.for_schedule schedule in
  let k = Kmatrix.build trace in

  (* Co-design the binding (2 locked adder FUs when available). *)
  let kind = Dfg.Add in
  let spec =
    Rb_core.Codesign.make_spec allocation kind ~locked_fus:2 ~minterms_per_fu:2
      (Rb_core.Codesign.top_candidates k kind)
  in
  let solution = Rb_core.Codesign.heuristic k schedule allocation spec in
  let binding = solution.Rb_core.Codesign.binding in

  (* Elaborate, verify, emit. *)
  let dp = Datapath.build binding in
  (match Datapath.validate dp with
   | Ok () -> ()
   | Error e ->
     Printf.eprintf "datapath inconsistency: %s\n" e;
     exit 1);
  (match Rtl_sim.check_trace dp trace with
   | Ok () ->
     Printf.eprintf
       "// RTL simulation matches dataflow semantics on %d samples\n"
       (Rb_sim.Trace.length trace)
   | Error e ->
     Printf.eprintf "RTL/dataflow mismatch: %s\n" e;
     exit 1);
  Printf.eprintf "// %d registers, mux fan-in %d, locking: %s\n"
    (Datapath.n_registers dp) (Datapath.mux_inputs dp)
    (Format.asprintf "%a" Rb_locking.Config.pp solution.Rb_core.Codesign.config);
  print_string (Verilog.emit dp)
