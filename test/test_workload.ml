module Dfg = Rb_dfg.Dfg
module Word = Rb_dfg.Word
module Schedule = Rb_sched.Schedule
module Trace = Rb_sim.Trace
module Kmatrix = Rb_sim.Kmatrix
module Benchmark = Rb_workload.Benchmark
module Stats = Rb_util.Stats

let all = Benchmark.all ()

let test_registry () =
  Alcotest.(check int) "11 benchmarks" 11 (List.length all);
  Alcotest.(check (list string)) "paper order"
    [ "dct"; "ecb_enc4"; "fft"; "fir"; "jctrans2"; "jdmerge1"; "jdmerge3"; "jdmerge4";
      "motion2"; "motion3"; "noisest2" ]
    (Benchmark.names ());
  Alcotest.(check string) "find" "fft" (Benchmark.find "fft").Benchmark.name;
  match Benchmark.find "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown benchmark accepted"

let test_all_dfgs_validate () =
  List.iter
    (fun b ->
      match Dfg.validate b.Benchmark.dfg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" b.Benchmark.name e)
    all

let test_operation_mix_matches_paper_scale () =
  (* Paper: average 18.6 adds and 10.6 multiplies over 13.5 cycles. We
     require the same order of magnitude per benchmark and on
     average. *)
  let adds =
    List.map (fun b -> float_of_int (List.length (Dfg.ops_of_kind b.Benchmark.dfg Dfg.Add))) all
  in
  let muls =
    List.map (fun b -> float_of_int (List.length (Dfg.ops_of_kind b.Benchmark.dfg Dfg.Mul))) all
  in
  Alcotest.(check bool) "avg adds in 10..30" true
    (Stats.mean adds >= 10.0 && Stats.mean adds <= 30.0);
  Alcotest.(check bool) "avg muls in 4..20" true
    (Stats.mean muls >= 4.0 && Stats.mean muls <= 20.0);
  List.iter2
    (fun b a -> Alcotest.(check bool) (b.Benchmark.name ^ " has adds") true (a >= 5.0))
    all adds

let test_ecb_has_no_multipliers () =
  (* The paper notes "No multipliers were present in the ecb_enc4
     benchmark" — preserved by our rebuild. *)
  let b = Benchmark.find "ecb_enc4" in
  Alcotest.(check int) "no muls" 0 (List.length (Dfg.ops_of_kind b.Benchmark.dfg Dfg.Mul));
  List.iter
    (fun other ->
      if other.Benchmark.name <> "ecb_enc4" then
        Alcotest.(check bool) (other.Benchmark.name ^ " has muls") true
          (Dfg.ops_of_kind other.Benchmark.dfg Dfg.Mul <> []))
    all

let test_schedules_fit_resource_budget () =
  List.iter
    (fun b ->
      (* causal by construction: Schedule.make raises on a violation *)
      let s = Benchmark.schedule b in
      Alcotest.(check bool) (b.Benchmark.name ^ " <=3 adders") true
        (Schedule.max_concurrency s Dfg.Add <= 3);
      Alcotest.(check bool) (b.Benchmark.name ^ " <=3 mults") true
        (Schedule.max_concurrency s Dfg.Mul <= 3))
    all

let test_cycle_counts_reasonable () =
  let cycles = List.map (fun b -> float_of_int (Schedule.n_cycles (Benchmark.schedule b))) all in
  Alcotest.(check bool) "avg cycles in 6..25" true
    (Stats.mean cycles >= 6.0 && Stats.mean cycles <= 25.0)

let test_traces_deterministic () =
  let b = Benchmark.find "dct" in
  let t1 = Benchmark.trace ~seed:5 b and t2 = Benchmark.trace ~seed:5 b in
  let same = ref true in
  for s = 0 to Trace.length t1 - 1 do
    if Trace.sample t1 s <> Trace.sample t2 s then same := false
  done;
  Alcotest.(check bool) "same seed, same trace" true !same;
  let t3 = Benchmark.trace ~seed:6 b in
  let differs = ref false in
  for s = 0 to Trace.length t1 - 1 do
    if Trace.sample t1 s <> Trace.sample t3 s then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

let test_traces_in_word_range () =
  List.iter
    (fun b ->
      let t = Benchmark.trace ~length:64 b in
      for s = 0 to Trace.length t - 1 do
        Array.iter
          (fun v ->
            if v < 0 || v > Word.mask then
              Alcotest.failf "%s out of range: %d" b.Benchmark.name v)
          (Trace.sample t s)
      done)
    all

let test_workloads_are_heavy_tailed () =
  (* The binding algorithms rely on repetitive inputs: the most common
     minterm must dominate a uniform-random baseline (which would put
     ~trace/65536 on each). *)
  List.iter
    (fun b ->
      let t = Benchmark.trace b in
      let k = Kmatrix.build t in
      match Kmatrix.top_minterms k ~n:1 with
      | [ m ] ->
        Alcotest.(check bool)
          (b.Benchmark.name ^ " head is tall") true
          (Kmatrix.total_occurrences k m >= Benchmark.default_trace_length / 8)
      | _ -> Alcotest.failf "%s produced no minterms" b.Benchmark.name)
    all

let test_candidate_lists_fill_up () =
  (* Sec. VI aggregates the 10 most common inputs; every benchmark's
     trace must be rich enough to supply them for its dominant kind. *)
  List.iter
    (fun b ->
      let t = Benchmark.trace b in
      let k = Kmatrix.build t in
      Alcotest.(check int) (b.Benchmark.name ^ " add candidates") 10
        (List.length (Kmatrix.top_minterms ~kind:Dfg.Add k ~n:10)))
    all

let test_trace_length_override () =
  let b = Benchmark.find "fir" in
  Alcotest.(check int) "custom length" 32 (Trace.length (Benchmark.trace ~length:32 b))

(* {1 Parameterized thousand-op kernels} *)

module Kernels = Rb_workload.Kernels

let test_parametric_sizes () =
  (* Op counts must land in the paper-motivated 10^3..10^4 band (the
     scale where sparse matching pays off) and follow the generators'
     documented formulas. *)
  let cases =
    [
      ("fft256", Kernels.fft_n ~n:256, 4096);
      ("fft512", Kernels.fft_n ~n:512, 9216);
      ("dct64", Kernels.dct_n ~n:64, 4128);
      ("conv64", Kernels.conv_n ~taps:16 ~points:64, 1984);
      ("aes16", Kernels.aes_round_n ~blocks:16, 2048);
    ]
  in
  List.iter
    (fun (name, dfg, expect) ->
      Alcotest.(check int) (name ^ " op count") expect (Dfg.op_count dfg);
      Alcotest.(check bool) (name ^ " in band") true (expect >= 1000 && expect <= 10000))
    cases

let test_parametric_validate () =
  List.iter
    (fun (name, dfg) ->
      match Dfg.validate dfg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" name e)
    [
      ("fft256", Kernels.fft_n ~n:256);
      ("dct32", Kernels.dct_n ~n:32);
      ("conv32", Kernels.conv_n ~taps:8 ~points:32);
      ("aes4", Kernels.aes_round_n ~blocks:4);
    ]

let test_parametric_deterministic () =
  (* Integer surrogate coefficients only: the same size always rebuilds
     the same DFG, so schedules and bindings replay exactly. *)
  let fingerprint dfg =
    ( Dfg.op_count dfg,
      Dfg.critical_path_length dfg,
      List.length (Dfg.ops_of_kind dfg Dfg.Add),
      List.length (Dfg.ops_of_kind dfg Dfg.Mul) )
  in
  List.iter
    (fun (name, build) ->
      Alcotest.(check bool) (name ^ " deterministic") true
        (fingerprint (build ()) = fingerprint (build ())))
    [
      ("fft256", fun () -> Kernels.fft_n ~n:256);
      ("dct32", fun () -> Kernels.dct_n ~n:32);
      ("conv32", fun () -> Kernels.conv_n ~taps:8 ~points:32);
      ("aes4", fun () -> Kernels.aes_round_n ~blocks:4);
    ]

let test_parametric_schedulable () =
  let b = Benchmark.parametric "fft" ~n:256 in
  let s =
    Benchmark.schedule ~limits:{ Rb_sched.Scheduler.adders = 8; multipliers = 8 } b
  in
  Alcotest.(check bool) "fft256 <=8 adders" true (Schedule.max_concurrency s Dfg.Add <= 8);
  Alcotest.(check bool) "fft256 <=8 mults" true (Schedule.max_concurrency s Dfg.Mul <= 8)

let test_parametric_registry () =
  let b = Benchmark.parametric "aes" ~n:8 in
  Alcotest.(check string) "derived name" "aes8" b.Benchmark.name;
  Alcotest.(check int) "aes8 ops" 1024 (Dfg.op_count b.Benchmark.dfg);
  (match Benchmark.parametric "nope" ~n:64 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "unknown family accepted");
  (* Parametric names stay out of the fixed Fig. 4 registry. *)
  Alcotest.(check bool) "not in registry" true
    (not (List.mem "fft256" (Benchmark.names ())))

let test_parametric_rejects_bad_sizes () =
  let invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Dfg.t) -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  invalid "fft not pow2" (fun () -> Kernels.fft_n ~n:100);
  invalid "fft too small" (fun () -> Kernels.fft_n ~n:4);
  invalid "dct not pow2" (fun () -> Kernels.dct_n ~n:33);
  invalid "conv one tap" (fun () -> Kernels.conv_n ~taps:1 ~points:64);
  invalid "conv no points" (fun () -> Kernels.conv_n ~taps:8 ~points:0);
  invalid "aes no blocks" (fun () -> Kernels.aes_round_n ~blocks:0)

let () =
  Alcotest.run "rb_workload"
    [
      ( "registry",
        [
          Alcotest.test_case "names and lookup" `Quick test_registry;
          Alcotest.test_case "all validate" `Quick test_all_dfgs_validate;
          Alcotest.test_case "operation mix" `Quick test_operation_mix_matches_paper_scale;
          Alcotest.test_case "ecb has no muls" `Quick test_ecb_has_no_multipliers;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "fit budget" `Quick test_schedules_fit_resource_budget;
          Alcotest.test_case "cycle counts" `Quick test_cycle_counts_reasonable;
        ] );
      ( "traces",
        [
          Alcotest.test_case "deterministic" `Quick test_traces_deterministic;
          Alcotest.test_case "in range" `Quick test_traces_in_word_range;
          Alcotest.test_case "heavy tails" `Quick test_workloads_are_heavy_tailed;
          Alcotest.test_case "candidate lists" `Quick test_candidate_lists_fill_up;
          Alcotest.test_case "length override" `Quick test_trace_length_override;
        ] );
      ( "parametric",
        [
          Alcotest.test_case "op counts" `Quick test_parametric_sizes;
          Alcotest.test_case "validate" `Quick test_parametric_validate;
          Alcotest.test_case "deterministic" `Quick test_parametric_deterministic;
          Alcotest.test_case "schedulable" `Quick test_parametric_schedulable;
          Alcotest.test_case "registry" `Quick test_parametric_registry;
          Alcotest.test_case "bad sizes" `Quick test_parametric_rejects_bad_sizes;
        ] );
    ]
