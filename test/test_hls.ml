module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Scheduler = Rb_sched.Scheduler
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Bind_engine = Rb_hls.Bind_engine
module Profile = Rb_hls.Profile
module Registers = Rb_hls.Registers
module Switching = Rb_hls.Switching
module Testgen = Rb_testsupport.Testgen

let setup seed =
  let dfg = Testgen.random_dfg seed ~n_ops:24 in
  let schedule = Scheduler.path_based dfg in
  let allocation = Allocation.for_schedule schedule in
  (dfg, schedule, allocation)

(* ---------------------------------------------------------- allocation *)

let test_allocation_matches_concurrency () =
  let _, schedule, allocation = setup 1 in
  Alcotest.(check int) "adders" (Schedule.max_concurrency schedule Dfg.Add) allocation.Allocation.adders;
  Alcotest.(check int) "multipliers" (Schedule.max_concurrency schedule Dfg.Mul)
    allocation.Allocation.multipliers

let test_allocation_fu_ids () =
  let a = { Allocation.adders = 2; multipliers = 3 } in
  Alcotest.(check (list int)) "adders first" [ 0; 1 ] (Allocation.fu_ids a Dfg.Add);
  Alcotest.(check (list int)) "mults after" [ 2; 3; 4 ] (Allocation.fu_ids a Dfg.Mul);
  Alcotest.(check bool) "kind of 1" true (Allocation.kind_of_fu a 1 = Dfg.Add);
  Alcotest.(check bool) "kind of 4" true (Allocation.kind_of_fu a 4 = Dfg.Mul);
  match Allocation.kind_of_fu a 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range accepted"

(* ------------------------------------------------------------- binding *)

let test_binding_validation () =
  let dfg = Testgen.fig2_dfg () in
  let schedule = Testgen.fig2_schedule dfg in
  let allocation = { Allocation.adders = 3; multipliers = 0 } in
  (* valid binding *)
  let b = Binding.make schedule allocation ~fu_of_op:[| 0; 1; 0; 1; 2 |] in
  Alcotest.(check int) "fu of OPE" 2 (Binding.fu_of_op b 4);
  Alcotest.(check (list int)) "ops on FU0" [ 0; 2 ] (Binding.ops_on_fu b 0);
  (* double booking: OPA and OPB both cycle 0 on FU0 *)
  (match Binding.make schedule allocation ~fu_of_op:[| 0; 0; 0; 1; 2 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "double booking accepted");
  (* wrong length *)
  (match Binding.make schedule allocation ~fu_of_op:[| 0; 1 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "wrong length accepted");
  (* out of range FU *)
  match Binding.make schedule allocation ~fu_of_op:[| 0; 1; 0; 1; 7 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad FU accepted"

let test_binding_wrong_kind_rejected () =
  let _, schedule, allocation = setup 2 in
  let dfg = Schedule.dfg schedule in
  match
    (* bind everything to FU 0 (an adder) including multiplies *)
    Binding.make schedule allocation ~fu_of_op:(Array.make (Dfg.op_count dfg) 0)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted"

let test_ops_on_fu_in_time_sorted () =
  let _, schedule, allocation = setup 3 in
  let binding = Testgen.random_valid_binding 99 schedule allocation in
  for fu = 0 to Allocation.total allocation - 1 do
    let cycles =
      List.map (Schedule.cycle_of schedule) (Binding.ops_on_fu_in_time binding fu)
    in
    Alcotest.(check bool) "sorted by cycle" true (List.sort Int.compare cycles = cycles)
  done

(* --------------------------------------------------------- bind engine *)

let test_engine_produces_valid_bindings () =
  let _, schedule, allocation = setup 4 in
  let binding =
    Bind_engine.bind ~objective:`Maximize
      ~weight:(fun ~kind:_ ~cycle:_ ~op ~fu -> float_of_int ((op * 7) + fu))
      schedule allocation
  in
  (* Binding.make inside the engine validates; spot-check coverage. *)
  let dfg = Schedule.dfg schedule in
  for id = 0 to Dfg.op_count dfg - 1 do
    Alcotest.(check bool) "bound" true (Binding.fu_of_op binding id >= 0)
  done

let test_engine_respects_weights () =
  (* A weight function that strongly prefers one FU per op must be
     honoured when there is no conflict. *)
  let dfg = Testgen.fig2_dfg () in
  let schedule = Testgen.fig2_schedule dfg in
  let allocation = { Allocation.adders = 3; multipliers = 0 } in
  let preferred = [| 2; 0; 1; 0; 2 |] in
  let binding =
    Bind_engine.bind ~objective:`Maximize
      ~weight:(fun ~kind:_ ~cycle:_ ~op ~fu -> if preferred.(op) = fu then 10.0 else 0.0)
      schedule allocation
  in
  Array.iteri
    (fun op fu -> Alcotest.(check int) (Printf.sprintf "op %d" op) fu (Binding.fu_of_op binding op))
    preferred

let test_engine_rejects_small_allocation () =
  let dfg = Testgen.fig2_dfg () in
  let schedule = Testgen.fig2_schedule dfg in
  let allocation = { Allocation.adders = 2; multipliers = 0 } in
  (* cycle 1 has 3 concurrent adds *)
  match
    Bind_engine.bind ~objective:`Maximize
      ~weight:(fun ~kind:_ ~cycle:_ ~op:_ ~fu:_ -> 0.0)
      schedule allocation
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undersized allocation accepted"

(* ------------------------------------------------------------- profile *)

let test_profile_matches_exec () =
  let dfg = Testgen.random_dfg 5 ~n_ops:10 in
  let trace = Testgen.random_trace 6 dfg in
  let profile = Rb_sim.Operands.build trace in
  Alcotest.(check int) "samples" (Rb_sim.Trace.length trace) (Rb_sim.Operands.n_samples profile);
  for s = 0 to Rb_sim.Operands.n_samples profile - 1 do
    let evals = Exec_ref.eval_clean trace ~sample:s in
    for op = 0 to Dfg.op_count dfg - 1 do
      let a, b = Profile.operands profile op ~sample:s in
      Alcotest.(check (pair int int)) "operands agree"
        (evals.(op).Exec_ref.a, evals.(op).Exec_ref.b)
        (a, b)
    done
  done

let test_expected_hamming_properties () =
  let dfg = Testgen.random_dfg 7 ~n_ops:8 in
  let trace = Testgen.random_trace 8 dfg in
  let profile = Rb_sim.Operands.build trace in
  Alcotest.(check (float 1e-9)) "self distance" 0.0 (Profile.expected_input_hamming profile 3 3);
  Alcotest.(check (float 1e-9)) "symmetry"
    (Profile.expected_input_hamming profile 1 4)
    (Profile.expected_input_hamming profile 4 1);
  Alcotest.(check bool) "bounded by 2w" true
    (Profile.expected_input_hamming profile 0 5 <= 16.0)

(* --------------------------------------------------- baseline binders *)

let test_area_binding_beats_random_on_registers () =
  let wins = ref 0 and total = ref 0 in
  List.iter
    (fun seed ->
      let _, schedule, allocation = setup seed in
      let area = Rb_hls.Area_binding.bind schedule allocation in
      let area_regs = Registers.count area in
      List.iter
        (fun bseed ->
          let random = Testgen.random_valid_binding bseed schedule allocation in
          incr total;
          if area_regs <= Registers.count random then incr wins)
        [ 101; 102; 103; 104; 105 ])
    [ 10; 11; 12; 13 ];
  (* The area binder optimizes the same metric greedily; it must beat
     or match random bindings nearly always. *)
  Alcotest.(check bool)
    (Printf.sprintf "wins %d/%d" !wins !total)
    true
    (float_of_int !wins /. float_of_int !total >= 0.8)

let test_power_binding_beats_random_on_switching () =
  let wins = ref 0 and total = ref 0 in
  List.iter
    (fun seed ->
      let dfg = Testgen.random_dfg seed ~n_ops:24 in
      let schedule = Scheduler.path_based dfg in
      let allocation = Allocation.for_schedule schedule in
      let trace = Testgen.skewed_trace (seed + 50) dfg in
      let profile = Rb_sim.Operands.build trace in
      let power = Rb_hls.Power_binding.bind schedule allocation ~profile in
      let power_sw = Switching.rate power profile in
      List.iter
        (fun bseed ->
          let random = Testgen.random_valid_binding bseed schedule allocation in
          incr total;
          if power_sw <= Switching.rate random profile +. 1e-9 then incr wins)
        [ 201; 202; 203; 204; 205 ])
    [ 20; 21; 22; 23 ];
  Alcotest.(check bool)
    (Printf.sprintf "wins %d/%d" !wins !total)
    true
    (float_of_int !wins /. float_of_int !total >= 0.8)

(* ----------------------------------------------------------- overhead *)

let test_register_lifetimes () =
  let dfg = Testgen.fig2_dfg () in
  let schedule = Testgen.fig2_schedule dfg in
  let allocation = { Allocation.adders = 3; multipliers = 0 } in
  let binding = Binding.make schedule allocation ~fu_of_op:[| 0; 1; 0; 1; 2 |] in
  let lifetimes = Registers.value_lifetimes binding in
  (* OPA (id 0) born in cycle 0, last consumed by OPC/OPD in cycle 1. *)
  Alcotest.(check bool) "OPA lives 0->1" true (List.mem (0, 0, 1) lifetimes);
  (* OPC (id 2) is an output with no consumers: drained at birth. *)
  Alcotest.(check bool) "OPC drained" true (List.mem (2, 1, 1) lifetimes)

let test_register_count_positive_when_values_cross () =
  let _, schedule, allocation = setup 30 in
  let binding = Testgen.random_valid_binding 31 schedule allocation in
  Alcotest.(check bool) "non-negative" true (Registers.count binding >= 0)

let test_switching_rate_bounds () =
  let dfg = Testgen.random_dfg 32 ~n_ops:20 in
  let schedule = Scheduler.path_based dfg in
  let allocation = Allocation.for_schedule schedule in
  let trace = Testgen.random_trace 33 dfg in
  let profile = Rb_sim.Operands.build trace in
  let binding = Testgen.random_valid_binding 34 schedule allocation in
  let rate = Switching.rate binding profile in
  Alcotest.(check bool) "in [0,1]" true (rate >= 0.0 && rate <= 1.0)

let test_switching_zero_when_no_transitions () =
  (* 2-op DFG on 2 FUs, one op each: no FU executes twice. *)
  let b = Dfg.Builder.create "two" in
  let a = Dfg.Builder.input b "a" in
  let x = Dfg.Builder.add b a a in
  let _y = Dfg.Builder.add b a x in
  let dfg = Dfg.Builder.finish b in
  let schedule = Schedule.make dfg ~cycle_of:[| 0; 1 |] in
  let allocation = { Allocation.adders = 2; multipliers = 0 } in
  let binding = Binding.make schedule allocation ~fu_of_op:[| 0; 1 |] in
  let trace = Testgen.random_trace 35 dfg in
  let profile = Rb_sim.Operands.build trace in
  Alcotest.(check (float 1e-9)) "no transitions" 0.0 (Switching.rate binding profile)

(* ------------------------------------------------------------ binders *)

module Binders = Rb_core.Binders
module Kmatrix = Rb_sim.Kmatrix
module Config = Rb_locking.Config
module Scheme = Rb_locking.Scheme
module Metrics = Rb_util.Metrics

let binder_input seed =
  let dfg = Testgen.random_dfg seed ~n_ops:24 in
  let schedule = Scheduler.path_based dfg in
  let allocation = Allocation.for_schedule schedule in
  let trace = Testgen.skewed_trace (seed + 1) dfg in
  let profile = Rb_sim.Operands.build trace in
  let k = Kmatrix.build trace in
  let candidates = Array.of_list (Kmatrix.top_minterms ~kind:Dfg.Add k ~n:4) in
  let config = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, [ candidates.(0) ]) ] in
  { Binders.schedule; allocation; profile; k; config; candidates }

(* The closed set is listed in name order and every name resolves
   back to its binder. *)
let test_binder_registry_names () =
  let names = List.map Binders.name Binders.all in
  Alcotest.(check (list string)) "sorted" (List.sort String.compare names) names;
  List.iter
    (fun b ->
      Alcotest.(check bool) (Binders.name b ^ " round-trips") true
        (Binders.of_name (Binders.name b) = Some b))
    Binders.all

let test_binder_unknown () =
  Alcotest.(check bool) "unknown name resolves to nothing" true
    (Binders.of_name "no-such-binder" = None)

(* Every [Binders.bind] call counts exactly once under its own
   binder's name, and the baselines give the direct call's binding
   (test_core checks the security-aware pair). *)
let test_binder_registry_matches_direct () =
  let input = binder_input 42 in
  let counts () =
    List.map
      (fun b -> Metrics.counter_value (Metrics.counter ~scope:"binder" (Binders.name b ^ "_binds")))
      Binders.all
  in
  let bind_counted b =
    Metrics.set_enabled true;
    Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
        let before = counts () in
        let out = Binders.bind b input in
        Alcotest.(check (list int)) (Binders.name b ^ " counted once, others not")
          (List.map (fun b' -> if b' = b then 1 else 0) Binders.all)
          (List.map2 ( - ) (counts ()) before);
        out)
  in
  let outputs = List.map (fun b -> (b, bind_counted b)) Binders.all in
  let area = List.assoc Binders.Area outputs in
  let direct = Rb_hls.Area_binding.bind input.Binders.schedule input.Binders.allocation in
  Alcotest.(check bool) "area binding identical" true (area.Binders.binding = direct);
  Alcotest.(check bool) "config echoed" true (area.Binders.config == input.Binders.config);
  let power = List.assoc Binders.Power outputs in
  let direct =
    Rb_hls.Power_binding.bind input.Binders.schedule input.Binders.allocation
      ~profile:input.Binders.profile
  in
  Alcotest.(check bool) "power binding identical" true (power.Binders.binding = direct)

let qcheck_register_count_matches_oracle =
  QCheck2.Test.make ~name:"register count = per-boundary recount" ~count:100
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 2))
    (fun (seed, spare) ->
      let dfg = Testgen.random_dfg seed ~n_ops:(4 + (seed mod 40)) in
      let schedule = Scheduler.path_based ~limits:{ Scheduler.adders = 2; multipliers = 2 } dfg in
      let min = Allocation.for_schedule schedule in
      let allocation =
        { Allocation.adders = min.Allocation.adders + spare;
          multipliers = min.Allocation.multipliers + spare }
      in
      List.for_all
        (fun binding -> Registers.count binding = Registers_ref.count binding)
        [ Testgen.random_valid_binding (seed + 1) schedule allocation;
          Rb_hls.Area_binding.bind schedule allocation ])

let qcheck_baseline_binders_always_valid =
  QCheck2.Test.make ~name:"area/power binders always produce valid bindings" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let dfg = Testgen.random_dfg seed ~n_ops:(8 + (seed mod 20)) in
      let schedule = Scheduler.path_based dfg in
      let allocation = Allocation.for_schedule schedule in
      let trace = Testgen.skewed_trace (seed + 1) dfg in
      let profile = Rb_sim.Operands.build trace in
      (* Binding.make raises on invalid results; reaching here means both passed. *)
      let (_ : Binding.t) = Rb_hls.Area_binding.bind schedule allocation in
      let (_ : Binding.t) = Rb_hls.Power_binding.bind schedule allocation ~profile in
      true)

(* Operand columns against the original two-table profile kept in
   test/profile_ref.ml: every operand pair and every pairwise expected
   Hamming distance exactly equal, and power binding unchanged. *)
let qcheck_profile_matches_reference =
  QCheck2.Test.make ~name:"profile = two-table reference" ~count:60
    QCheck2.Gen.(pair (int_range 0 10_000) (oneofl [ 1; 2; 33; 257 ]))
    (fun (seed, n) ->
      let dfg = Testgen.random_dfg seed ~n_ops:(1 + (seed mod 20)) in
      let trace =
        if seed mod 2 = 0 then Testgen.random_trace ~n (seed + 1) dfg
        else Testgen.skewed_trace ~n (seed + 1) dfg
      in
      let profile = Rb_sim.Operands.build trace and reference = Profile_ref.build trace in
      let ops = List.init (Dfg.op_count dfg) Fun.id in
      let schedule = Scheduler.path_based dfg in
      let allocation = Allocation.for_schedule schedule in
      Rb_sim.Operands.n_samples profile = Profile_ref.n_samples reference
      && List.for_all
           (fun op ->
             List.for_all
               (fun sample ->
                 Profile.operands profile op ~sample = Profile_ref.operands reference op ~sample)
               (List.init n Fun.id)
             && List.for_all
                  (fun op2 ->
                    Profile.expected_input_hamming profile op op2
                    = Profile_ref.expected_input_hamming reference op op2)
                  ops)
           ops
      && Binding.fu_array (Rb_hls.Power_binding.bind schedule allocation ~profile)
         = Binding.fu_array (Profile_ref.power_bind schedule allocation reference))

let () =
  Alcotest.run "rb_hls"
    [
      ( "allocation",
        [
          Alcotest.test_case "matches concurrency" `Quick test_allocation_matches_concurrency;
          Alcotest.test_case "fu ids" `Quick test_allocation_fu_ids;
        ] );
      ( "binding",
        [
          Alcotest.test_case "validation" `Quick test_binding_validation;
          Alcotest.test_case "wrong kind" `Quick test_binding_wrong_kind_rejected;
          Alcotest.test_case "time order" `Quick test_ops_on_fu_in_time_sorted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "valid bindings" `Quick test_engine_produces_valid_bindings;
          Alcotest.test_case "respects weights" `Quick test_engine_respects_weights;
          Alcotest.test_case "small allocation" `Quick test_engine_rejects_small_allocation;
        ] );
      ( "profile",
        [
          Alcotest.test_case "matches exec" `Quick test_profile_matches_exec;
          Alcotest.test_case "hamming properties" `Quick test_expected_hamming_properties;
          QCheck_alcotest.to_alcotest qcheck_profile_matches_reference;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "area beats random" `Slow test_area_binding_beats_random_on_registers;
          Alcotest.test_case "power beats random" `Slow test_power_binding_beats_random_on_switching;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "lifetimes" `Quick test_register_lifetimes;
          Alcotest.test_case "count sane" `Quick test_register_count_positive_when_values_cross;
          Alcotest.test_case "switching bounds" `Quick test_switching_rate_bounds;
          Alcotest.test_case "switching zero" `Quick test_switching_zero_when_no_transitions;
        ] );
      ( "binder",
        [
          Alcotest.test_case "registry names" `Quick test_binder_registry_names;
          Alcotest.test_case "unknown binder" `Quick test_binder_unknown;
          Alcotest.test_case "registry matches direct" `Quick
            test_binder_registry_matches_direct;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_baseline_binders_always_valid; qcheck_register_count_matches_oracle ] );
    ]
