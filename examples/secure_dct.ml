(* Locking a DCT accelerator, end to end.

   The dct benchmark (an 8-point DCT kernel from mpeg2enc) is
   scheduled, profiled on its typical image workload, and locked with 2
   locked multiplier FUs x 2 locked minterms each. The same locking
   configuration is then realized under all four binding algorithms,
   and the wrong-key behaviour is *measured* by trace simulation — not
   just predicted by the cost function — along with the register and
   switching overhead each binding pays.

   Run with: dune exec examples/secure_dct.exe *)

module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Benchmark = Rb_workload.Benchmark
module Kmatrix = Rb_sim.Kmatrix
module Exec = Rb_sim.Exec
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Registers = Rb_hls.Registers
module Switching = Rb_hls.Switching
module Config = Rb_locking.Config
module Cost = Rb_core.Cost
module Table = Rb_util.Table

let () =
  let bench = Benchmark.find "dct" in
  let schedule = Benchmark.schedule bench in
  let trace = Benchmark.trace bench in
  let allocation = Allocation.for_schedule schedule in
  Format.printf "%a@." Dfg.pp bench.Benchmark.dfg;
  Format.printf "%a, allocated %a@.@." Schedule.pp schedule Allocation.pp allocation;

  (* Profile the typical workload: one golden pass, whose operand
     columns are both the power profile and the K matrix's input. *)
  let profile = Rb_sim.Operands.build trace in
  let k = Kmatrix.of_operands profile in
  let candidates = Rb_core.Codesign.top_candidates k Dfg.Mul in
  Format.printf "Top multiplier input minterms in the trace:@.";
  Array.iteri
    (fun i m ->
      if i < 5 then
        Format.printf "  %a seen %d times@." Rb_dfg.Minterm.pp m
          (Kmatrix.total_occurrences k m))
    candidates;

  (* Lock the first two multiplier FUs with two minterms each, chosen
     by the co-design heuristic. *)
  let spec =
    Rb_core.Codesign.make_spec allocation Dfg.Mul ~locked_fus:2 ~minterms_per_fu:2 candidates
  in
  let codesigned = Rb_core.Codesign.heuristic k schedule allocation spec in
  let config = codesigned.Rb_core.Codesign.config in
  Format.printf "@.Locking configuration: %a@." Config.pp config;
  Format.printf "Predicted SAT iterations per locked FU (Eqn. 1): %.0f@.@."
    (Config.lambda_per_fu config);

  (* Bind the same configuration four ways. *)
  let area = Rb_hls.Area_binding.bind schedule allocation in
  let power = Rb_hls.Power_binding.bind schedule allocation ~profile in
  let obf = Rb_core.Obf_binding.bind k config schedule allocation in
  let cd = codesigned.Rb_core.Codesign.binding in

  let table =
    Table.create ~title:"dct under one locking configuration, four bindings"
      ~columns:
        [ "E (Eqn.2)"; "measured errors"; "corrupted samples"; "burst"; "registers"; "switching" ]
  in
  let report name binding =
    let e = Cost.expected_errors k binding config in
    let r =
      Exec.application_errors schedule trace ~fu_of_op:(Binding.fu_array binding) ~config
    in
    Table.add_text_row table ~label:name
      ~cells:
        [
          string_of_int e;
          string_of_int r.Exec.error_events;
          Printf.sprintf "%d/%d" r.Exec.corrupted_samples r.Exec.samples;
          string_of_int r.Exec.max_consecutive_cycles;
          string_of_int (Registers.count binding);
          Printf.sprintf "%.3f" (Switching.rate binding profile);
        ]
  in
  report "area-aware [20]" area;
  report "power-aware [19]" power;
  report "obfuscation-aware (Sec. IV)" obf;
  report "co-design (Sec. V)" cd;
  Table.print table;
  print_newline ();
  print_endline
    "Same locked minterms, same SAT resilience - the security-aware bindings\n\
     route the error-prone values onto the locked units, multiplying the\n\
     wrong-key corruption the attacker experiences."
