module Netlist = Rb_netlist.Netlist
module Circuits = Rb_netlist.Circuits
module Lock = Rb_netlist.Lock
module B = Netlist.Builder
module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Schedule = Rb_sched.Schedule
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Config = Rb_locking.Config
module Scheme = Rb_locking.Scheme
module Rng = Rb_util.Rng
module Diagnostic = Rb_lint.Diagnostic
module Report = Rb_lint.Report
module Netlist_rules = Rb_lint.Netlist_rules
module Locking_rules = Rb_lint.Locking_rules
module Lint = Rb_lint.Lint

let rules_of diags = List.map (fun d -> d.Diagnostic.rule) diags

let has_rule rule diags = List.mem rule (rules_of diags)

let check_fires name rule diags =
  Alcotest.(check bool) (name ^ " fires " ^ rule) true (has_rule rule diags)

let check_silent name rule diags =
  Alcotest.(check bool) (name ^ " does not fire " ^ rule) false (has_rule rule diags)

(* ------------------------------------------------- netlist rule fixtures *)

let test_net_dead () =
  let b = B.create ~n_inputs:1 ~n_keys:0 in
  let x = B.input b 0 in
  let (_ : Netlist.net) = B.not_ b x in
  (* dead: feeds nothing *)
  B.output b (B.and_ b x x);
  let diags = Netlist_rules.check (B.finish b) in
  check_fires "dead gate" Netlist_rules.rule_dead diags;
  Alcotest.(check bool) "dead gate is only a warning" true
    (List.for_all (fun d -> d.Diagnostic.severity <> Diagnostic.Error) diags)

let test_net_key_mute () =
  (* the key input is never wired into the circuit at all *)
  let b = B.create ~n_inputs:1 ~n_keys:1 in
  B.output b (B.not_ b (B.input b 0));
  let diags = Netlist_rules.check (B.finish b) in
  check_fires "unconnected key" Netlist_rules.rule_key_mute diags;
  check_silent "unconnected key" Netlist_rules.rule_key_strip diags

let test_net_key_strip () =
  (* k XOR k = 0 feeds the output XOR: structurally connected, but
     constant folding removes the key entirely *)
  let b = B.create ~n_inputs:1 ~n_keys:1 in
  let x = B.input b 0 and k = B.key b 0 in
  let kk = B.xor_ b k k in
  B.output b (B.xor_ b x kk);
  let diags = Netlist_rules.check (B.finish b) in
  check_fires "strippable key" Netlist_rules.rule_key_strip diags;
  check_silent "strippable key" Netlist_rules.rule_key_mute diags

let test_net_const_out () =
  (* output wired straight to a key input: observable key bit, error *)
  let b = B.create ~n_inputs:1 ~n_keys:1 in
  B.output b (B.key b 0);
  B.output b (B.not_ b (B.input b 0));
  let diags = Netlist_rules.check (B.finish b) in
  check_fires "key output" Netlist_rules.rule_const_out diags;
  Alcotest.(check bool) "key output is an error" true
    (List.exists
       (fun d ->
         d.Diagnostic.rule = Netlist_rules.rule_const_out
         && d.Diagnostic.severity = Diagnostic.Error)
       diags);
  (* statically-constant output: warning only *)
  let b = B.create ~n_inputs:2 ~n_keys:0 in
  let x = B.input b 0 in
  B.output b (B.and_ b x (B.not_ b x));
  (* x AND not x: unknown to the folder (no same-net rule), so use a
     literal constant instead *)
  let b = B.create ~n_inputs:1 ~n_keys:0 in
  B.output b (B.const b true);
  B.output b (B.not_ b (B.input b 0));
  let report = Lint.netlist (B.finish b) in
  check_fires "const output" Netlist_rules.rule_const_out (Report.diagnostics report);
  Alcotest.(check bool) "const output alone stays clean" true (Report.is_clean report)

let test_net_key_skew () =
  (* an AND-reduce over five key bits is true with probability 1/32
     under random keys — far below the 0.05 floor, the textbook
     ProbLock leak *)
  let b = B.create ~n_inputs:1 ~n_keys:5 in
  let x = B.input b 0 in
  let keys = List.init 5 (B.key b) in
  let guard = B.and_reduce b keys in
  B.output b (B.and_ b x guard);
  let diags = Netlist_rules.check (B.finish b) in
  check_fires "key AND-chain" Netlist_rules.rule_key_skew diags;
  Alcotest.(check bool) "skew is only a warning" true
    (List.for_all
       (fun d ->
         d.Diagnostic.rule <> Netlist_rules.rule_key_skew
         || d.Diagnostic.severity <> Diagnostic.Error)
       diags);
  (* a lone XOR key gate is perfectly balanced: silent *)
  let b = B.create ~n_inputs:1 ~n_keys:1 in
  let x = B.input b 0 in
  let g = B.not_ b x in
  B.output b (B.xor_ b g (B.key b 0));
  check_silent "balanced XOR lock" Netlist_rules.rule_key_skew
    (Netlist_rules.check (B.finish b))

let test_clean_adder_has_no_diags () =
  let report = Lint.netlist (Circuits.adder ~width:4) in
  Alcotest.(check (list string)) "no diagnostics at all" []
    (rules_of (Report.diagnostics report))

(* ----------------------------------------------------- HLS rule fixtures *)

(* two independent adds and one dependent add: op2 consumes op0 *)
let little_dfg () =
  let b = Dfg.Builder.create "lint-fixture" in
  let x = Dfg.Builder.input b "x" and y = Dfg.Builder.input b "y" in
  let s0 = Dfg.Builder.add b x y in
  let s1 = Dfg.Builder.add b x (Dfg.Builder.const 3) in
  let s2 = Dfg.Builder.add b s0 y in
  Dfg.Builder.output b s1;
  Dfg.Builder.output b s2;
  Dfg.Builder.finish b

(* The precedence, oversubscription and kind fixtures keep the case names
   of the rules that once checked them. An acausal schedule cannot be
   built; each invalid raw binding is one HLS-BIND error, diagnosed rather
   than raised. *)
let lint_binding fu_of_op =
  let schedule = Schedule.make (little_dfg ()) ~cycle_of:[| 0; 0; 1 |] in
  let allocation = { Allocation.adders = 2; multipliers = 1 } in
  Lint.design ~subject:"fixture" schedule allocation ~fu_of_op

let check_one_bind_error name fu_of_op =
  Alcotest.(check (list string)) (name ^ " gives one HLS-BIND") [ Lint.rule_binding ]
    (rules_of (Report.errors (lint_binding fu_of_op)))

let test_hls_precedence () =
  let dfg = little_dfg () in
  (* op2 consumes op0 but is scheduled in the same cycle *)
  (match Schedule.make dfg ~cycle_of:[| 0; 0; 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "same-cycle producer accepted");
  Alcotest.(check int) "causal schedule builds" 2
    (Schedule.n_cycles (Schedule.make dfg ~cycle_of:[| 0; 0; 1 |]))

let test_hls_oversubscribed () =
  (* ops 0 and 1 share cycle 0 yet both sit on FU 0 *)
  check_one_bind_error "double-booked FU" [| 0; 0; 0 |]

let test_hls_kind () =
  (* FU 2 is the multiplier; op 1 is an add *)
  check_one_bind_error "wrong-kind FU" [| 0; 2; 0 |];
  check_one_bind_error "out-of-range FU" [| 0; 9; 0 |];
  check_one_bind_error "short binding" [| 0 |]

let test_hls_binding () =
  Alcotest.(check (list string)) "valid binding is silent" []
    (rules_of (Report.diagnostics (lint_binding [| 0; 1; 0 |])))

(* ------------------------------------------------- locking rule fixtures *)

let minterms n = List.init n Minterm.of_int

let test_lock_resilience () =
  (* two locked minterms under the scheme's own 32-bit key: Eqn. 1
     predicts 386,120 iterations, under a 10^6 target *)
  let config = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, minterms 2) ] in
  check_fires "under-resilient config" Locking_rules.rule_resilience
    (Locking_rules.check_config ~min_lambda:1e6 config);
  (* and comfortably resilient against a 10^3 target *)
  Alcotest.(check (list string)) "resilient config is silent" []
    (rules_of (Locking_rules.check_config ~min_lambda:1000.0 config))

let test_lock_overlap () =
  let shared = Minterm.pack 3 7 in
  let config =
    Config.make ~scheme:Scheme.Sfll_rem
      ~locks:[ (0, [ shared; Minterm.pack 1 1 ]); (2, [ shared; Minterm.pack 2 2 ]) ]
  in
  let diags = Locking_rules.check_config config in
  check_fires "shared minterm" Locking_rules.rule_overlap diags;
  Alcotest.(check bool) "overlap is only a warning" true
    (List.for_all (fun d -> d.Diagnostic.severity = Diagnostic.Warning) diags)

let test_lock_candidates () =
  let candidates = [| Minterm.pack 1 1; Minterm.pack 2 2 |] in
  let config =
    Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, [ Minterm.pack 9 9 ]) ]
  in
  let diags = Locking_rules.check_config ~candidates config in
  check_fires "off-list minterm" Locking_rules.rule_candidates diags;
  let config = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, [ candidates.(0) ]) ] in
  Alcotest.(check (list string)) "on-list minterm is silent" []
    (rules_of (Locking_rules.check_config ~candidates config))

(* ---------------------------------------------------- report + reporters *)

let test_report_order_and_counts () =
  let report =
    Report.make ~subject:"fixture"
      [
        Diagnostic.warning ~rule:"Z-WARN" Diagnostic.Whole_design "later";
        Diagnostic.error ~rule:"A-ERR" (Diagnostic.Gate 1) "first";
      ]
  in
  Alcotest.(check int) "errors" 1 (Report.error_count report);
  Alcotest.(check int) "warnings" 1 (Report.warning_count report);
  Alcotest.(check bool) "not clean" false (Report.is_clean report);
  (match Report.diagnostics report with
   | [ first; second ] ->
     Alcotest.(check string) "errors sort first" "A-ERR" first.Diagnostic.rule;
     Alcotest.(check string) "warnings after" "Z-WARN" second.Diagnostic.rule
   | _ -> Alcotest.fail "expected two diagnostics")

let test_json_reporter () =
  let report =
    Report.make ~subject:{|quo"ted|}
      [
        Diagnostic.error ~rule:"NET-DEAD" (Diagnostic.Gate 3) ~hint:"fix\nit"
          "bad \"net\"";
      ]
  in
  let json = Report.to_json report in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("json contains " ^ fragment) true
        (let n = String.length json and m = String.length fragment in
         let rec go i = i + m <= n && (String.sub json i m = fragment || go (i + 1)) in
         go 0))
    [
      {|"subject":"quo\"ted"|};
      {|"errors":1|};
      {|"rule":"NET-DEAD"|};
      {|{"kind":"gate","index":3}|};
      {|"hint":"fix\nit"|};
      {|"message":"bad \"net\""|};
    ]

(* -------------------------------------------- end-to-end cleanliness *)

(* Every benchmark, co-designed and bound, must pass every rule. *)
let test_benchmarks_lint_clean () =
  List.iter
    (fun b ->
      let schedule = Rb_workload.Benchmark.schedule b in
      let trace = Rb_workload.Benchmark.trace ~length:64 b in
      let allocation = Allocation.for_schedule schedule in
      let k = Rb_sim.Kmatrix.build trace in
      List.iter
        (fun kind ->
          let candidates = Rb_core.Codesign.top_candidates k kind in
          if Allocation.fu_ids allocation kind <> [] && Array.length candidates > 0 then begin
            let spec =
              Rb_core.Codesign.make_spec allocation kind ~locked_fus:2 ~minterms_per_fu:2
                candidates
            in
            let sol = Rb_core.Codesign.heuristic k schedule allocation spec in
            let binding = sol.Rb_core.Codesign.binding in
            let report =
              Lint.design ~candidates ~config:sol.Rb_core.Codesign.config
                ~subject:(b.Rb_workload.Benchmark.name ^ "/" ^ Dfg.kind_label kind)
                schedule allocation ~fu_of_op:(Binding.fu_array binding)
            in
            Alcotest.(check bool)
              (Report.subject report ^ " lint-clean")
              true (Report.is_clean report)
          end)
        [ Dfg.Add; Dfg.Mul ])
    (Rb_workload.Benchmark.all ())

(* Property: every lock construction, at any width/seed/strength, emits
   a gate-level-clean circuit. *)
let qcheck_lock_constructions_lint_clean =
  QCheck2.Test.make ~name:"lock constructions are lint-clean" ~count:60
    QCheck2.Gen.(triple (int_range 2 5) (int_range 0 999) (int_range 0 3))
    (fun (width, seed, which) ->
      let rng = Rng.create seed in
      let base = Circuits.adder ~width in
      let locked =
        match which with
        | 0 -> Lock.xor_random ~rng ~key_bits:(1 + (seed mod 4)) base
        | 1 ->
          let space = 1 lsl (2 * width) in
          Lock.point_function
            ~minterms:[ Rng.int rng space; Rng.int rng space ]
            base
        | 2 -> Lock.anti_sat ~rng base
        | _ -> Lock.permutation_network ~rng ~layers:(1 + (seed mod 4)) base
      in
      Report.is_clean (Lint.locked locked))

let () =
  Alcotest.run "rb_lint"
    [
      ( "netlist rules",
        [
          Alcotest.test_case "NET-DEAD" `Quick test_net_dead;
          Alcotest.test_case "NET-KEY-MUTE" `Quick test_net_key_mute;
          Alcotest.test_case "NET-KEY-STRIP" `Quick test_net_key_strip;
          Alcotest.test_case "NET-CONST-OUT" `Quick test_net_const_out;
          Alcotest.test_case "NET-KEY-SKEW" `Quick test_net_key_skew;
          Alcotest.test_case "clean adder" `Quick test_clean_adder_has_no_diags;
        ] );
      ( "hls rules",
        [
          Alcotest.test_case "HLS-PREC" `Quick test_hls_precedence;
          Alcotest.test_case "HLS-OVERSUB" `Quick test_hls_oversubscribed;
          Alcotest.test_case "HLS-KIND" `Quick test_hls_kind;
          Alcotest.test_case "HLS-BIND" `Quick test_hls_binding;
        ] );
      ( "locking rules",
        [
          Alcotest.test_case "LOCK-RESIL" `Quick test_lock_resilience;
          Alcotest.test_case "LOCK-OVERLAP" `Quick test_lock_overlap;
          Alcotest.test_case "LOCK-CAND" `Quick test_lock_candidates;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "order and counts" `Quick test_report_order_and_counts;
          Alcotest.test_case "json" `Quick test_json_reporter;
        ] );
      ( "end to end",
        Alcotest.test_case "benchmarks lint-clean" `Slow test_benchmarks_lint_clean
        :: List.map QCheck_alcotest.to_alcotest
             [ qcheck_lock_constructions_lint_clean ] );
    ]
