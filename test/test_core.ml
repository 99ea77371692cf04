module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Schedule = Rb_sched.Schedule
module Scheduler = Rb_sched.Scheduler
module Kmatrix = Rb_sim.Kmatrix
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Config = Rb_locking.Config
module Scheme = Rb_locking.Scheme
module Cost = Rb_core.Cost
module Obf_binding = Rb_core.Obf_binding
module Codesign = Rb_core.Codesign
module Methodology = Rb_core.Methodology
module Experiments = Rb_core.Experiments
module Testgen = Rb_testsupport.Testgen
module Limits = Rb_util.Limits
module Combi = Rb_util.Combi

(* The paper's Fig. 2 setting: 5 add operations over 2 cycles, 3 adder
   FUs, FU0 locks 'x' = (1,1), FU1 locks 'y' = (2,2). *)
let fig2_setting () =
  let dfg = Testgen.fig2_dfg () in
  let schedule = Testgen.fig2_schedule dfg in
  let allocation = { Allocation.adders = 3; multipliers = 0 } in
  let k = Testgen.fig2_kmatrix dfg in
  let config =
    Config.make ~scheme:Scheme.Sfll_rem
      ~locks:[ (0, [ Testgen.minterm_x ]); (1, [ Testgen.minterm_y ]) ]
  in
  (dfg, schedule, allocation, k, config)

(* ---------------------------------------------------------------- cost *)

let test_edge_weights_match_fig2 () =
  let _, _, _, k, config = fig2_setting () in
  (* w(FU0, OPA) = K(x, OPA) = 6; w(FU1, OPA) = K(y, OPA) = 9. *)
  Alcotest.(check int) "w(FU0,OPA)" 6 (Cost.edge_weight k config ~fu:0 ~op:0);
  Alcotest.(check int) "w(FU1,OPA)" 9 (Cost.edge_weight k config ~fu:1 ~op:0);
  Alcotest.(check int) "w(FU0,OPB)" 4 (Cost.edge_weight k config ~fu:0 ~op:1);
  Alcotest.(check int) "w(FU1,OPE)" 8 (Cost.edge_weight k config ~fu:1 ~op:4);
  Alcotest.(check int) "unlocked FU2 weighs 0" 0 (Cost.edge_weight k config ~fu:2 ~op:0)

let test_expected_errors_eqn2 () =
  let _, schedule, allocation, k, config = fig2_setting () in
  (* Fig. 2C's clock-1 solution: OPA->FU1, OPB->FU0 (cost 13). For
     clock 2 bind OPC->FU1 (7), OPD->FU2, OPE->FU0 (10): E = 30. *)
  let binding = Binding.make schedule allocation ~fu_of_op:[| 1; 0; 1; 2; 0 |] in
  Alcotest.(check int) "E = 13 + 17" 30 (Cost.expected_errors k binding config)

let test_cand_table_matches_kmatrix () =
  let dfg = Testgen.random_dfg 3 ~n_ops:10 in
  let trace = Testgen.skewed_trace 4 dfg in
  let k = Kmatrix.build trace in
  let candidates = Array.of_list (Kmatrix.top_minterms k ~n:6) in
  let table = Cost.cand_table k candidates in
  Array.iteri
    (fun c m ->
      for op = 0 to Dfg.op_count dfg - 1 do
        Alcotest.(check int) "cand count = K" (Kmatrix.count k m op)
          (Cost.cand_count table ~cand:c ~op)
      done)
    candidates

(* --------------------------------------------------- obfuscation-aware *)

let test_obf_binding_reproduces_fig2_clock1 () =
  let _, schedule, allocation, k, config = fig2_setting () in
  let binding = Obf_binding.bind k config schedule allocation in
  (* Fig. 2C: OPA to FU1 (weight 9), OPB to FU0 (weight 4): cost 13 for
     clock 1; the matching is the unique optimum. *)
  Alcotest.(check int) "OPA -> FU1" 1 (Binding.fu_of_op binding 0);
  Alcotest.(check int) "OPB -> FU0" 0 (Binding.fu_of_op binding 1);
  (* Clock 2 optimum: OPC->FU1 (7), OPE->FU0 (10) = 17; total 30. *)
  Alcotest.(check int) "max errors" 30 (Cost.expected_errors k binding config)

let test_obf_binding_beats_all_bindings_fig2 () =
  (* Thm. 2 on a case small enough to enumerate: 3 FUs, cycle 0 has 2
     ops, cycle 1 has 3 ops: 6 * 6 = 36 bindings. *)
  let _, schedule, allocation, k, config = fig2_setting () in
  let obf = Obf_binding.bind k config schedule allocation in
  let obf_errors = Cost.expected_errors k obf config in
  let perms = [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ]; [ 2; 1; 0 ] ] in
  List.iter
    (fun p0 ->
      List.iter
        (fun p1 ->
          match (p0, p1) with
          | a :: b :: _, [ c; d; e ] ->
            let binding =
              Binding.make schedule allocation ~fu_of_op:[| a; b; c; d; e |]
            in
            Alcotest.(check bool) "obf is max" true
              (Cost.expected_errors k binding config <= obf_errors)
          | _ -> assert false)
        perms)
    perms

let qcheck_obf_binding_optimal =
  (* Thm. 2 at property scale: obfuscation-aware binding dominates
     random valid bindings on Eqn. 2. *)
  QCheck2.Test.make ~name:"obf binding >= random bindings (Thm. 2)" ~count:60
    QCheck2.Gen.(pair (int_range 0 5_000) (int_range 0 1_000))
    (fun (seed, bseed) ->
      let dfg = Testgen.random_dfg seed ~n_ops:14 in
      let trace = Testgen.skewed_trace (seed + 1) dfg in
      let schedule = Scheduler.path_based dfg in
      let allocation = Allocation.for_schedule schedule in
      let k = Kmatrix.build trace in
      match Kmatrix.top_minterms k ~n:3 with
      | [] -> true
      | minterms ->
        let config = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, minterms) ] in
        let obf = Obf_binding.bind k config schedule allocation in
        let random = Testgen.random_valid_binding bseed schedule allocation in
        Cost.expected_errors k obf config >= Cost.expected_errors k random config)

(* Enumerate every valid binding of a small scheduled DFG and check the
   obfuscation-aware binding attains the global maximum of Eqn. 2 —
   Thm. 2 (separability + per-cycle optimality) verified exhaustively
   on random instances. *)
let exhaustive_max_errors k config schedule allocation =
  let dfg = Schedule.dfg schedule in
  let n_ops = Dfg.op_count dfg in
  let fu_of_op = Array.make n_ops (-1) in
  let best = ref 0 in
  let rec assign_cycle cycle =
    if cycle >= Schedule.n_cycles schedule then begin
      let binding = Binding.make schedule allocation ~fu_of_op in
      let e = Cost.expected_errors k binding config in
      if e > !best then best := e
    end
    else begin
      let ops k = Array.of_list (Schedule.ops_in_cycle schedule k cycle) in
      let fus k = Array.of_list (Rb_hls.Allocation.fu_ids allocation k) in
      (* enumerate injective maps for adds, then for muls, then recurse *)
      let rec inject ops fus used i next =
        if i >= Array.length ops then next ()
        else
          Array.iter
            (fun fu ->
              if not (List.mem fu !used) then begin
                used := fu :: !used;
                fu_of_op.(ops.(i)) <- fu;
                inject ops fus used (i + 1) next;
                used := List.filter (fun f -> f <> fu) !used
              end)
            fus
      in
      inject (ops Dfg.Add) (fus Dfg.Add) (ref []) 0 (fun () ->
          inject (ops Dfg.Mul) (fus Dfg.Mul) (ref []) 0 (fun () ->
              assign_cycle (cycle + 1)))
    end
  in
  assign_cycle 0;
  !best

let qcheck_thm2_exhaustive =
  QCheck2.Test.make ~name:"Thm. 2: obf binding attains the global optimum" ~count:25
    QCheck2.Gen.(int_range 0 3_000)
    (fun seed ->
      let dfg = Testgen.random_dfg seed ~n_ops:8 ~n_inputs:3 in
      let trace = Testgen.skewed_trace (seed + 1) dfg ~n:24 in
      let schedule = Scheduler.path_based dfg in
      let allocation = Allocation.for_schedule schedule in
      let k = Kmatrix.build trace in
      match Kmatrix.top_minterms k ~n:4 with
      | first :: rest ->
        let locks =
          match Rb_hls.Allocation.fu_ids allocation Dfg.Add with
          | fu :: _ -> [ (fu, first :: List.filteri (fun i _ -> i < 1) rest) ]
          | [] -> [ (allocation.Allocation.adders, [ first ]) ]
        in
        let config = Config.make ~scheme:Scheme.Sfll_rem ~locks in
        let obf = Obf_binding.bind k config schedule allocation in
        Cost.expected_errors k obf config
        = exhaustive_max_errors k config schedule allocation
      | [] -> true)

let test_fast_path_agrees_with_public_bind () =
  let dfg = Testgen.random_dfg 8 ~n_ops:16 in
  let trace = Testgen.skewed_trace 9 dfg in
  let schedule = Scheduler.path_based dfg in
  let allocation = Allocation.for_schedule schedule in
  let k = Kmatrix.build trace in
  let candidates = Array.of_list (Kmatrix.top_minterms ~kind:Dfg.Add k ~n:5) in
  if Array.length candidates >= 2 && allocation.Allocation.adders >= 1 then begin
    let table = Cost.cand_table k candidates in
    let fast = Obf_binding.Fast.prepare table schedule allocation ~kind:Dfg.Add in
    let subset = [| 0; 1 |] in
    let fast_errors = Obf_binding.Fast.best_errors fast ~locks:[ (0, subset) ] in
    let config =
      Config.make ~scheme:Scheme.Sfll_rem
        ~locks:[ (0, Cost.subset_minterms table subset) ]
    in
    let public = Obf_binding.bind k config schedule allocation in
    Alcotest.(check int) "fast = public" (Cost.expected_errors k public config) fast_errors
  end

let test_fast_rejects_wrong_kind_fu () =
  let dfg = Testgen.random_dfg 10 ~n_ops:16 in
  let trace = Testgen.skewed_trace 11 dfg in
  let schedule = Scheduler.path_based dfg in
  let allocation = Allocation.for_schedule schedule in
  let k = Kmatrix.build trace in
  let candidates = Array.of_list (Kmatrix.top_minterms k ~n:3) in
  let table = Cost.cand_table k candidates in
  let fast = Obf_binding.Fast.prepare table schedule allocation ~kind:Dfg.Add in
  let mul_fu = allocation.Allocation.adders in
  if allocation.Allocation.multipliers > 0 then
    match Obf_binding.Fast.best_errors fast ~locks:[ (mul_fu, [| 0 |]) ] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "wrong-kind FU accepted"

(* The per-cycle Hungarian path the integer kernel replaced, kept as a
   differential oracle: one dense max-weight matching per cycle over
   every FU of [kind], unlocked FUs weighing 0, the last lock of a
   repeated FU winning. *)
let hungarian_best_errors table schedule allocation ~kind ~locks =
  let fus = Array.of_list (Allocation.fu_ids allocation kind) in
  let subset_of = Hashtbl.create 8 in
  List.iter (fun (fu, subset) -> Hashtbl.replace subset_of fu subset) locks;
  let weigh op fu =
    match Hashtbl.find_opt subset_of fu with
    | None -> 0.0
    | Some subset ->
      float_of_int
        (Array.fold_left (fun acc cand -> acc + Cost.cand_count table ~cand ~op) 0 subset)
  in
  let total = ref 0 in
  for c = 0 to Schedule.n_cycles schedule - 1 do
    let ops = Array.of_list (Schedule.ops_in_cycle schedule kind c) in
    let matrix = Array.map (fun op -> Array.map (weigh op) fus) ops in
    Array.iteri
      (fun row col -> total := !total + int_of_float matrix.(row).(col))
      (Rb_matching.Matcher.max_weight matrix)
  done;
  !total

(* A random kernel instance for the differential properties. Half the
   seeds take a random DFG under its path-based schedule; the other half
   take flat DFGs whose operations read one of a few input pairs,
   scattered over a few cycles, so identical operations and identical
   cycles repeat. FUs may exceed the schedule's need, and the candidate
   list mixes the most frequent minterms with ones that never occur. *)
let kernel_instance seed =
  let rng = Rb_util.Rng.create seed in
  let dfg, schedule =
    if Rb_util.Rng.bool rng then begin
      let dfg = Testgen.random_dfg seed ~n_ops:(6 + Rb_util.Rng.int rng 14) in
      (dfg, Scheduler.path_based dfg)
    end
    else begin
      let b = Dfg.Builder.create "flat" in
      let inputs = Array.init 3 (fun i -> Dfg.Builder.input b (Printf.sprintf "in%d" i)) in
      let n_ops = 4 + Rb_util.Rng.int rng 12 in
      for _ = 1 to n_ops do
        let lhs = Rb_util.Rng.pick rng inputs and rhs = Rb_util.Rng.pick rng inputs in
        let op = if Rb_util.Rng.int rng 3 = 0 then Dfg.Builder.mul else Dfg.Builder.add in
        ignore (op b lhs rhs)
      done;
      let dfg = Dfg.Builder.finish b in
      let n_cycles = 1 + Rb_util.Rng.int rng 4 in
      (dfg, Schedule.make dfg ~cycle_of:(Array.init n_ops (fun _ -> Rb_util.Rng.int rng n_cycles)))
    end
  in
  let trace = Testgen.skewed_trace (seed + 1) dfg ~n:32 in
  let k = Kmatrix.build trace in
  let kind = if Rb_util.Rng.bool rng then Dfg.Add else Dfg.Mul in
  let need = Allocation.for_schedule schedule in
  let extra () = Rb_util.Rng.int rng 2 in
  let allocation =
    {
      Allocation.adders = max 1 need.Allocation.adders + extra ();
      multipliers = max 1 need.Allocation.multipliers + extra ();
    }
  in
  let unused =
    let rec find i =
      let m = Minterm.of_int (i mod Minterm.space_size) in
      if Kmatrix.total_occurrences k m = 0 then m else find (i + 1)
    in
    find (Rb_util.Rng.int rng Minterm.space_size)
  in
  let candidates =
    Array.of_list (Kmatrix.top_minterms ~kind k ~n:(1 + Rb_util.Rng.int rng 4) @ [ unused ])
  in
  let table = Cost.cand_table k candidates in
  (rng, schedule, allocation, kind, table, Array.length candidates)

let random_subset rng n_cands =
  Array.init (1 + Rb_util.Rng.int rng 3) (fun _ -> Rb_util.Rng.int rng n_cands)

let qcheck_fast_matches_hungarian =
  QCheck2.Test.make ~name:"Fast.best_errors = per-cycle Hungarian" ~count:400
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng, schedule, allocation, kind, table, n_cands = kernel_instance seed in
      let fast = Obf_binding.Fast.prepare table schedule allocation ~kind in
      let fus = Array.of_list (Allocation.fu_ids allocation kind) in
      Rb_util.Rng.shuffle rng fus;
      (* 1..|FUs| locked, sometimes with one FU locked twice. *)
      let n_locked = 1 + Rb_util.Rng.int rng (Array.length fus) in
      let locks = List.init n_locked (fun i -> (fus.(i), random_subset rng n_cands)) in
      let locks =
        if Rb_util.Rng.int rng 4 = 0 then locks @ [ (fus.(0), random_subset rng n_cands) ]
        else locks
      in
      Obf_binding.Fast.best_errors fast ~locks
      = hungarian_best_errors table schedule allocation ~kind ~locks)

let qcheck_fold_product_matches_hungarian =
  QCheck2.Test.make ~name:"Fast.fold_product = per-cycle Hungarian, in order" ~count:150
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng, schedule, allocation, kind, table, n_cands = kernel_instance seed in
      let fast = Obf_binding.Fast.prepare table schedule allocation ~kind in
      let fus = Array.of_list (Allocation.fu_ids allocation kind) in
      Rb_util.Rng.shuffle rng fus;
      let fus = Array.sub fus 0 (1 + Rb_util.Rng.int rng (min 3 (Array.length fus))) in
      let subsets = Array.init (1 + Rb_util.Rng.int rng 4) (fun _ -> random_subset rng n_cands) in
      let expected =
        Combi_ref.fold_cartesian
          (Array.map (fun _ -> Array.init (Array.length subsets) Fun.id) fus)
          ~init:[]
          ~f:(fun acc tuple ->
            let locks = Array.to_list (Array.mapi (fun i s -> (fus.(i), subsets.(s))) tuple) in
            (Array.copy tuple, hungarian_best_errors table schedule allocation ~kind ~locks)
            :: acc)
      in
      let got =
        Obf_binding.Fast.fold_product fast ~fus ~subsets ~init:[] ~f:(fun acc tuple errors ->
            (Array.copy tuple, errors) :: acc)
      in
      got = expected)

(* ------------------------------------------------------------ codesign *)

let codesign_setting seed =
  let dfg = Testgen.random_dfg seed ~n_ops:16 in
  let trace = Testgen.skewed_trace (seed + 1) dfg in
  let schedule = Scheduler.path_based dfg in
  let allocation = Allocation.for_schedule schedule in
  let k = Kmatrix.build trace in
  let candidates = Array.of_list (Kmatrix.top_minterms ~kind:Dfg.Add k ~n:6) in
  (schedule, allocation, k, candidates)

let test_codesign_optimal_vs_heuristic () =
  let schedule, allocation, k, candidates = codesign_setting 20 in
  let spec =
    { Codesign.scheme = Scheme.Sfll_rem; locked_fus = [ 0 ]; minterms_per_fu = 2; candidates }
  in
  match Codesign.optimal k schedule allocation spec with
  | `Too_large _ -> Alcotest.fail "tiny space reported too large"
  | `Solution opt ->
    let heur = Codesign.heuristic k schedule allocation spec in
    Alcotest.(check bool) "optimal >= heuristic" true
      (opt.Codesign.errors >= heur.Codesign.errors);
    (* single locked FU: the heuristic IS the optimal algorithm *)
    Alcotest.(check int) "single FU: equal" opt.Codesign.errors heur.Codesign.errors;
    Alcotest.(check int) "searched all" (Codesign.search_space spec)
      opt.Codesign.assignments_searched

let test_codesign_beats_fixed_assignment () =
  (* Co-design chooses minterms, so it must do at least as well as the
     obfuscation-aware binding of any fixed candidate subset. *)
  let schedule, allocation, k, candidates = codesign_setting 22 in
  let spec =
    { Codesign.scheme = Scheme.Sfll_rem; locked_fus = [ 0 ]; minterms_per_fu = 2; candidates }
  in
  let heur = Codesign.heuristic k schedule allocation spec in
  let fixed_config =
    Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, [ candidates.(0); candidates.(1) ]) ]
  in
  let fixed = Obf_binding.bind k fixed_config schedule allocation in
  Alcotest.(check bool) "codesign >= fixed head pair" true
    (heur.Codesign.errors >= Cost.expected_errors k fixed fixed_config)

let test_codesign_config_is_consistent () =
  let schedule, allocation, k, candidates = codesign_setting 24 in
  let spec =
    { Codesign.scheme = Scheme.Sfll_rem; locked_fus = [ 0 ]; minterms_per_fu = 2; candidates }
  in
  let heur = Codesign.heuristic k schedule allocation spec in
  (* reported errors = Eqn 2 of (binding, config) *)
  Alcotest.(check int) "errors consistent" heur.Codesign.errors
    (Cost.expected_errors k heur.Codesign.binding heur.Codesign.config);
  Alcotest.(check (list int)) "locked fus" [ 0 ] (Config.locked_fus heur.Codesign.config);
  Alcotest.(check int) "budget respected" 2
    (Minterm.Set.cardinal (Config.minterms_of heur.Codesign.config 0))

let test_codesign_too_large_guard () =
  let schedule, allocation, k, candidates = codesign_setting 26 in
  if allocation.Allocation.adders >= 2 then begin
    let spec =
      {
        Codesign.scheme = Scheme.Sfll_rem;
        locked_fus = [ 0; 1 ];
        minterms_per_fu = 3;
        candidates;
      }
    in
    match Codesign.optimal ~max_assignments:10 k schedule allocation spec with
    | `Too_large space ->
      Alcotest.(check int) "space size" (Codesign.search_space spec) space
    | `Solution _ -> Alcotest.fail "cap ignored"
  end

let test_codesign_spec_validation () =
  let schedule, allocation, k, candidates = codesign_setting 28 in
  let invalid spec =
    match Codesign.heuristic k schedule allocation spec with
    | exception Invalid_argument _ -> ()
    | (_ : Codesign.solution) -> Alcotest.fail "invalid spec accepted"
  in
  invalid { Codesign.scheme = Scheme.Sfll_rem; locked_fus = []; minterms_per_fu = 1; candidates };
  invalid
    { Codesign.scheme = Scheme.Sfll_rem; locked_fus = [ 0; 0 ]; minterms_per_fu = 1; candidates };
  invalid
    {
      Codesign.scheme = Scheme.Sfll_rem;
      locked_fus = [ 0 ];
      minterms_per_fu = 1 + Array.length candidates;
      candidates;
    }

let qcheck_optimal_dominates_heuristic =
  QCheck2.Test.make ~name:"optimal co-design >= heuristic (Sec. V-B.3)" ~count:15
    QCheck2.Gen.(int_range 0 2_000)
    (fun seed ->
      let schedule, allocation, k, candidates = codesign_setting seed in
      if Array.length candidates < 3 then true
      else begin
        let locked_fus = if allocation.Allocation.adders >= 2 then [ 0; 1 ] else [ 0 ] in
        let spec =
          { Codesign.scheme = Scheme.Sfll_rem; locked_fus; minterms_per_fu = 2; candidates }
        in
        match Codesign.optimal k schedule allocation spec with
        | `Too_large _ -> true
        | `Solution opt ->
          let heur = Codesign.heuristic k schedule allocation spec in
          opt.Codesign.errors >= heur.Codesign.errors
      end)

(* --------------------------------------------------------- methodology *)

let test_methodology_minimal_budget () =
  let schedule, allocation, k, candidates = codesign_setting 30 in
  let small_goal = { Methodology.target_error_events = 1; min_lambda = 10.0 } in
  let plan =
    Methodology.design k schedule allocation ~scheme:Scheme.Sfll_rem ~locked_fus:[ 0 ]
      ~candidates small_goal
  in
  Alcotest.(check int) "one minterm suffices" 1 plan.Methodology.minterms_per_fu;
  Alcotest.(check bool) "meets error target" true plan.Methodology.meets_error_target;
  Alcotest.(check bool) "resilient at h=1" true plan.Methodology.meets_resilience;
  Alcotest.(check bool) "no topup needed" false plan.Methodology.exponential_topup

let test_methodology_grows_budget () =
  let schedule, allocation, k, candidates = codesign_setting 32 in
  let base_plan =
    Methodology.design k schedule allocation ~scheme:Scheme.Sfll_rem ~locked_fus:[ 0 ]
      ~candidates
      { Methodology.target_error_events = 1; min_lambda = 1.0 }
  in
  let hungry =
    {
      Methodology.target_error_events = base_plan.Methodology.achieved_errors * 2;
      min_lambda = 1.0;
    }
  in
  let plan =
    Methodology.design k schedule allocation ~scheme:Scheme.Sfll_rem ~locked_fus:[ 0 ]
      ~candidates hungry
  in
  Alcotest.(check bool) "budget grew" true
    (plan.Methodology.minterms_per_fu > base_plan.Methodology.minterms_per_fu
     || not plan.Methodology.meets_error_target)

let test_methodology_unreachable_target () =
  let schedule, allocation, k, candidates = codesign_setting 34 in
  let plan =
    Methodology.design k schedule allocation ~scheme:Scheme.Sfll_rem ~locked_fus:[ 0 ]
      ~candidates
      { Methodology.target_error_events = max_int; min_lambda = 1.0 }
  in
  Alcotest.(check bool) "reports failure" false plan.Methodology.meets_error_target;
  Alcotest.(check int) "exhausted budget" (Array.length candidates)
    plan.Methodology.minterms_per_fu;
  Alcotest.(check bool) "an exhausted search is not a tripped limit" true
    (plan.Methodology.stopped = None)

let test_methodology_stops_on_cancel () =
  let schedule, allocation, k, candidates = codesign_setting 36 in
  let flag = Limits.new_cancel () in
  Limits.cancel flag;
  let plan =
    Methodology.design k schedule allocation
      ~limits:(Limits.make ~cancel:flag ())
      ~scheme:Scheme.Sfll_rem ~locked_fus:[ 0 ] ~candidates
      { Methodology.target_error_events = max_int; min_lambda = 1.0 }
  in
  Alcotest.(check bool) "plan carries the stop reason" true
    (plan.Methodology.stopped = Some Limits.Cancelled);
  (* The partial plan is still well-formed: it reflects the smallest
     budget, not garbage. *)
  Alcotest.(check bool) "budget evaluated at least once" true
    (plan.Methodology.minterms_per_fu >= 1);
  Alcotest.(check bool) "unmet target reported honestly" false
    plan.Methodology.meets_error_target

let test_methodology_unlimited_never_stopped () =
  let schedule, allocation, k, candidates = codesign_setting 30 in
  let plan =
    Methodology.design k schedule allocation ~scheme:Scheme.Sfll_rem
      ~locked_fus:[ 0 ] ~candidates
      { Methodology.target_error_events = 1; min_lambda = 1.0 }
  in
  Alcotest.(check bool) "default limits never trip" true
    (plan.Methodology.stopped = None)

(* ------------------------------------------------------------ ablation *)

module Ablation = Rb_core.Ablation

let test_ablation_candidate_lists () =
  let schedule, _, k, _ = codesign_setting 50 in
  ignore schedule;
  let top = Ablation.candidate_list ~strategy:Ablation.Most_common k Dfg.Add in
  let bottom = Ablation.candidate_list ~strategy:Ablation.Least_common k Dfg.Add in
  let rand = Ablation.candidate_list ~strategy:Ablation.Random_sample k Dfg.Add in
  let mass c =
    Array.fold_left (fun acc m -> acc + Kmatrix.total_occurrences k m) 0 c
  in
  Alcotest.(check bool) "top is heaviest" true (mass top >= mass bottom);
  Alcotest.(check bool) "random within bounds" true
    (mass rand >= mass bottom && mass rand <= mass top);
  Alcotest.(check (list int)) "top matches Kmatrix.top_minterms"
    (List.map Minterm.to_int (Kmatrix.top_minterms ~kind:Dfg.Add k ~n:10))
    (Array.to_list (Array.map Minterm.to_int top));
  (* least-common candidates still occur in the trace *)
  Array.iter
    (fun m ->
      Alcotest.(check bool) "occurs" true (Kmatrix.total_occurrences k m > 0))
    bottom

let test_ablation_strategy_ordering () =
  let bench = Rb_workload.Benchmark.find "fft" in
  let schedule = Rb_workload.Benchmark.schedule bench in
  let trace = Rb_workload.Benchmark.trace ~length:128 bench in
  let ctx = Experiments.context ~name:"fft" schedule trace in
  match Ablation.candidate_strategies ctx Dfg.Add with
  | [ top; _rand; bottom ] ->
    Alcotest.(check bool) "most-common strategy wins" true
      (top.Ablation.codesign_errors >= bottom.Ablation.codesign_errors);
    Alcotest.(check bool) "strategies tagged" true
      (top.Ablation.strategy = Ablation.Most_common
       && bottom.Ablation.strategy = Ablation.Least_common)
  | other -> Alcotest.failf "expected 3 strategies, got %d" (List.length other)

let test_ablation_generalization () =
  let bench = Rb_workload.Benchmark.find "dct" in
  let schedule = Rb_workload.Benchmark.schedule bench in
  let trace = Rb_workload.Benchmark.trace ~length:128 bench in
  let row = Ablation.generalization schedule trace Dfg.Mul in
  Alcotest.(check bool) "training errors positive" true (row.Ablation.train_measured > 0);
  Alcotest.(check bool) "generalizes to unseen half" true (row.Ablation.test_measured > 0)

let test_ablation_allocation_sensitivity () =
  let bench = Rb_workload.Benchmark.find "dct" in
  let rows =
    Ablation.allocation_sensitivity bench.Rb_workload.Benchmark.dfg (fun () ->
        Rb_workload.Benchmark.trace ~length:96 bench)
  in
  Alcotest.(check int) "four budgets" 4 (List.length rows);
  (match rows with
   | single :: rest ->
     Alcotest.(check (float 1e-9)) "1 FU leaves no freedom" 1.0
       single.Ablation.obf_vs_area;
     List.iter
       (fun r ->
         Alcotest.(check bool) "ratio >= 1" true (r.Ablation.obf_vs_area >= 1.0))
       rest
   | [] -> Alcotest.fail "no rows");
  (* more FUs always shortens or keeps the schedule *)
  let cycles = List.map (fun r -> r.Ablation.n_cycles) rows in
  Alcotest.(check bool) "cycles non-increasing" true
    (List.sort (fun a b -> Int.compare b a) cycles = cycles)

let test_ablation_scheduler_sensitivity () =
  let bench = Rb_workload.Benchmark.find "dct" in
  let rows =
    Ablation.scheduler_sensitivity bench.Rb_workload.Benchmark.dfg (fun () ->
        Rb_workload.Benchmark.trace ~length:96 bench)
  in
  Alcotest.(check int) "two schedulers" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Ablation.label ^ " ratio >= 1") true
        (r.Ablation.obf_vs_area >= 1.0))
    rows

(* --------------------------------------------------------- experiments *)

let small_context () =
  let bench = Rb_workload.Benchmark.find "fir" in
  let schedule = Rb_workload.Benchmark.schedule bench in
  let trace = Rb_workload.Benchmark.trace ~length:64 bench in
  Experiments.context ~name:"fir" schedule trace

let test_experiments_sweep_shapes () =
  let ctx = small_context () in
  let results =
    Experiments.sweep ~max_combos_per_config:50 ~max_optimal_assignments:5_000 ctx Dfg.Mul
  in
  Alcotest.(check bool) "has configurations" true (results <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "combos present" true (Array.length r.Experiments.combos > 0);
      Alcotest.(check bool) "sampling flagged correctly" true
        (r.Experiments.sampled = (r.Experiments.combos_total > 50));
      Array.iter
        (fun c ->
          Alcotest.(check bool) "obf >= baselines (Thm. 2)" true
            (c.Experiments.e_obf >= c.Experiments.e_area
             && c.Experiments.e_obf >= c.Experiments.e_power))
        r.Experiments.combos;
      Alcotest.(check bool) "codesign >= mean obf" true
        (r.Experiments.e_codesign_heuristic > 0))
    results

let test_experiments_fig4_row () =
  let ctx = small_context () in
  let results =
    Experiments.sweep ~max_combos_per_config:50 ~max_optimal_assignments:5_000 ctx Dfg.Mul
  in
  match Experiments.fig4_row ~benchmark:"fir" Dfg.Mul results with
  | None -> Alcotest.fail "expected a row"
  | Some row ->
    Alcotest.(check bool) "obf ratio >= 1" true (row.Experiments.obf_vs_area >= 1.0);
    Alcotest.(check bool) "codesign >= obf (vs area)" true
      (row.Experiments.cd_heur_vs_area >= row.Experiments.obf_vs_area)

let test_experiments_fig4_empty_kind () =
  let bench = Rb_workload.Benchmark.find "ecb_enc4" in
  let schedule = Rb_workload.Benchmark.schedule bench in
  let trace = Rb_workload.Benchmark.trace ~length:64 bench in
  let ctx = Experiments.context ~name:"ecb_enc4" schedule trace in
  let results = Experiments.sweep ~max_combos_per_config:20 ctx Dfg.Mul in
  Alcotest.(check bool) "no mult configs" true (results = []);
  Alcotest.(check bool) "no row" true
    (Experiments.fig4_row ~benchmark:"ecb_enc4" Dfg.Mul results = None)

let test_experiments_fig5_cells () =
  let ctx = small_context () in
  let results =
    Experiments.sweep ~max_combos_per_config:30 ~max_optimal_assignments:2_000 ctx Dfg.Mul
  in
  let cells = Experiments.fig5_cells results in
  Alcotest.(check int) "seven groups" 7 (List.length cells);
  let avg = List.nth cells 6 in
  Alcotest.(check string) "last is Avg." "Avg." avg.Experiments.cell_label;
  Alcotest.(check bool) "avg ratios >= 1" true (avg.Experiments.f5_obf_vs_area >= 1.0)

let test_experiments_ratio_floor () =
  Alcotest.(check (float 1e-9)) "normal" 2.0 (Experiments.ratio_vs 10 5);
  Alcotest.(check (float 1e-9)) "zero baseline floored" 10.0 (Experiments.ratio_vs 10 0)

let test_experiments_quality () =
  let bench = Rb_workload.Benchmark.find "fir" in
  let schedule = Rb_workload.Benchmark.schedule bench in
  let trace = Rb_workload.Benchmark.trace ~length:64 bench in
  let ctx = Experiments.context ~name:"fir" schedule trace in
  (match Experiments.quality ~trace ctx Dfg.Mul with
   | None -> Alcotest.fail "expected a quality row"
   | Some q ->
     Alcotest.(check int) "samples" 64 q.Experiments.samples;
     Alcotest.(check bool) "secure injects at least as much" true
       (q.Experiments.secure_events >= q.Experiments.base_events);
     Alcotest.(check bool) "bursts sane" true
       (q.Experiments.secure_max_burst >= 0
        && q.Experiments.base_corrupted_samples <= q.Experiments.samples));
  (* a kind with no FUs yields None *)
  let ecb = Rb_workload.Benchmark.find "ecb_enc4" in
  let eschedule = Rb_workload.Benchmark.schedule ecb in
  let etrace = Rb_workload.Benchmark.trace ~length:32 ecb in
  let ectx = Experiments.context ~name:"ecb_enc4" eschedule etrace in
  Alcotest.(check bool) "no mult FUs -> None" true
    (Experiments.quality ~trace:etrace ectx Dfg.Mul = None)

let test_experiments_post_binding () =
  let ctx = small_context () in
  (match Experiments.post_binding ctx Dfg.Mul with
   | None -> Alcotest.fail "expected a post-binding row"
   | Some r ->
     Alcotest.(check bool) "codesign errors positive" true (r.Experiments.codesign_errors > 0);
     Alcotest.(check bool) "post matches or is flagged" true
       (match r.Experiments.post_minterms with
        | Some h ->
          h >= r.Experiments.codesign_minterms
          && r.Experiments.post_errors >= r.Experiments.codesign_errors
        | None -> r.Experiments.post_errors < r.Experiments.codesign_errors);
     Alcotest.(check bool) "resilience ordering" true
       (r.Experiments.post_lambda <= r.Experiments.codesign_lambda));
  (* no FUs of a kind -> None *)
  let ecb = Rb_workload.Benchmark.find "ecb_enc4" in
  let ectx =
    Experiments.context ~name:"ecb_enc4"
      (Rb_workload.Benchmark.schedule ecb)
      (Rb_workload.Benchmark.trace ~length:32 ecb)
  in
  Alcotest.(check bool) "None for missing kind" true
    (Experiments.post_binding ectx Dfg.Mul = None)

let test_experiments_overhead_fields () =
  let ctx = small_context () in
  let ov = Experiments.overhead ~combos_per_config:2 ctx in
  Alcotest.(check bool) "registers positive" true (ov.Experiments.area_registers > 0);
  Alcotest.(check bool) "switching rates in range" true
    (ov.Experiments.power_switching >= 0.0 && ov.Experiments.power_switching <= 1.0
     && ov.Experiments.obf_switching >= 0.0 && ov.Experiments.obf_switching <= 1.0);
  Alcotest.(check bool) "power binder wins its own metric" true
    (ov.Experiments.power_switching <= ov.Experiments.obf_switching +. 1e-9)

(* ------------------------------------------------- sweep enumeration *)

(* An exhaustive configuration evaluates its t-th combination from the
   t-th assignment in lexicographic order (one candidate subset per
   locked FU, first FU most significant); its optimal co-design, over
   the same full candidate list, is the best of them. The fixed
   baseline bindings pin which FU gets which subset; e_obf alone is
   blind to that, since the obfuscation-aware binder may relabel FUs. *)
let test_sweep_exhaustive_lex_order () =
  let ctx = small_context () in
  let kind = Dfg.Mul in
  let candidates = Experiments.candidates_for ctx kind in
  let n_cands = Array.length candidates in
  let fus = Allocation.fu_ids ctx.Experiments.allocation kind in
  let fast =
    Obf_binding.Fast.prepare
      (Cost.cand_table ctx.Experiments.k candidates)
      ctx.Experiments.schedule ctx.Experiments.allocation ~kind
  in
  let results =
    Experiments.sweep ~max_combos_per_config:10_000 ~fu_counts:[ 1; 2 ]
      ~minterm_counts:[ 1; 2 ] ctx kind
  in
  Alcotest.(check int) "four configurations" 4 (List.length results);
  List.iter
    (fun (r : Experiments.config_result) ->
      Alcotest.(check bool) "exhaustive" false r.sampled;
      Alcotest.(check int) "full candidate list" n_cands r.optimal_candidates_used;
      let locked_fus = List.filteri (fun i _ -> i < r.locked_fu_count) fus in
      let subsets = Combi.k_subsets (Array.init n_cands Fun.id) r.minterms_per_fu in
      let rec lex = function
        | [] -> [ [] ]
        | fu :: rest ->
          List.concat_map
            (fun s -> List.map (fun tail -> (fu, s) :: tail) (lex rest))
            subsets
      in
      let errors_under binding locks =
        Cost.expected_errors ctx.Experiments.k binding
          (Config.make ~scheme:Scheme.Sfll_rem
             ~locks:
               (List.map
                  (fun (fu, s) -> (fu, Array.to_list (Array.map (Array.get candidates) s)))
                  locks))
      in
      let expected =
        Array.of_list
          (List.map
             (fun locks ->
               ( errors_under ctx.Experiments.area_binding locks,
                 errors_under ctx.Experiments.power_binding locks,
                 Obf_binding.Fast.best_errors fast ~locks ))
             (lex locked_fus))
      in
      Alcotest.(check int) "combos_total" (Array.length expected) r.combos_total;
      Alcotest.(check (array (triple int int int)))
        "(e_area, e_power, e_obf) in lexicographic order" expected
        (Array.map
           (fun (c : Experiments.combo_errors) -> (c.e_area, c.e_power, c.e_obf))
           r.combos);
      Alcotest.(check int) "optimal is the best combination"
        (Array.fold_left (fun acc (_, _, o) -> max acc o) 0 expected)
        r.e_codesign_optimal)
    results

(* ------------------------------------------------ security-aware binders *)

module Binders = Rb_core.Binders

let test_binders_registered () =
  Alcotest.(check (list string)) "all four binders"
    [ "area"; "codesign"; "obf"; "power" ]
    (List.map Binders.name Binders.all)

let binder_input () =
  let ctx = small_context () in
  let candidates = Experiments.candidates_for ctx Dfg.Add in
  let config =
    Config.make ~scheme:Scheme.Sfll_rem
      ~locks:[ (0, [ candidates.(0); candidates.(1) ]) ]
  in
  ( ctx,
    {
      Binders.schedule = ctx.Experiments.schedule;
      allocation = ctx.Experiments.allocation;
      profile = ctx.Experiments.profile;
      k = ctx.Experiments.k;
      config;
      candidates;
    } )

let test_obf_binder_matches_direct () =
  let ctx, input = binder_input () in
  let out = Binders.bind Binders.Obf input in
  let direct =
    Obf_binding.bind ctx.Experiments.k input.Binders.config ctx.Experiments.schedule
      ctx.Experiments.allocation
  in
  Alcotest.(check bool) "binding identical" true (out.Binders.binding = direct);
  Alcotest.(check bool) "config echoed" true (out.Binders.config == input.Binders.config)

let test_codesign_binder_chooses_config () =
  let _, input = binder_input () in
  let out = Binders.bind Binders.Codesign input in
  (* same locked-FU set, minterms drawn from the candidate list *)
  Alcotest.(check (list int)) "locked FUs preserved"
    (Config.locked_fus input.Binders.config)
    (Config.locked_fus out.Binders.config);
  let cands = Array.to_list input.Binders.candidates in
  List.iter
    (fun fu ->
      Minterm.Set.iter
        (fun m ->
          Alcotest.(check bool) "minterm from candidate list" true (List.mem m cands))
        (Config.minterms_of out.Binders.config fu))
    (Config.locked_fus out.Binders.config)

(* ------------------------------------------------- parallel determinism *)

module Pool = Rb_util.Pool
module Render = Rb_core.Render

module Metrics = Rb_util.Metrics

(* The PR-level guard: fanning a sweep suite over a 4-worker pool must
   render byte-identical tables to the single-job run, and the
   deterministic metrics counters (logical-work counts, not timings)
   must agree too — this is what lets CI's perf gate compare counters
   exactly regardless of --jobs. Small budgets keep it fast while
   still exercising the sampled branch and the chunked exhaustive
   branch. *)
let test_parallel_determinism () =
  let run jobs =
    Metrics.reset ();
    Metrics.set_enabled true;
    Fun.protect ~finally:(fun () -> Metrics.set_enabled false)
    @@ fun () ->
    let before = Metrics.snapshot () in
    let figs =
      Pool.with_pool ~jobs (fun pool ->
          let ctxs = [ small_context () ] in
          let suite =
            Experiments.sweep_suite ~pool ~max_combos_per_config:40
              ~max_optimal_assignments:2_000 ctxs
          in
          let fig4 =
            Render.fig4
              ~rows:(Experiments.fig4_rows suite)
              ~concentrations:(Experiments.concentrations ctxs)
          in
          let fig5 =
            Render.fig5
              ~cells:(Experiments.fig5_cells (Experiments.pooled_results suite))
              ~reduced:(Experiments.reduced_optimal_runs suite)
          in
          (fig4, fig5))
    in
    (figs, Metrics.counter_deltas ~before ~after:(Metrics.snapshot ()))
  in
  let (f4_seq, f5_seq), counters_seq = run 1 in
  let (f4_par, f5_par), counters_par = run 4 in
  Alcotest.(check string) "fig4 byte-identical" f4_seq f4_par;
  Alcotest.(check string) "fig5 byte-identical" f5_seq f5_par;
  Alcotest.(check bool) "sweep moved some counters" true (counters_seq <> []);
  Alcotest.(check (list (pair string int)))
    "metrics counters jobs-invariant" counters_seq counters_par

let () =
  Alcotest.run "rb_core"
    [
      ( "cost",
        [
          Alcotest.test_case "fig2 edge weights" `Quick test_edge_weights_match_fig2;
          Alcotest.test_case "eqn2" `Quick test_expected_errors_eqn2;
          Alcotest.test_case "cand table" `Quick test_cand_table_matches_kmatrix;
        ] );
      ( "obf-binding",
        [
          Alcotest.test_case "fig2 clock 1" `Quick test_obf_binding_reproduces_fig2_clock1;
          Alcotest.test_case "fig2 exhaustive optimum" `Quick test_obf_binding_beats_all_bindings_fig2;
          Alcotest.test_case "fast = public" `Quick test_fast_path_agrees_with_public_bind;
          Alcotest.test_case "fast kind check" `Quick test_fast_rejects_wrong_kind_fu;
        ] );
      ( "codesign",
        [
          Alcotest.test_case "optimal vs heuristic" `Quick test_codesign_optimal_vs_heuristic;
          Alcotest.test_case "beats fixed assignment" `Quick test_codesign_beats_fixed_assignment;
          Alcotest.test_case "solution consistency" `Quick test_codesign_config_is_consistent;
          Alcotest.test_case "too-large guard" `Quick test_codesign_too_large_guard;
          Alcotest.test_case "spec validation" `Quick test_codesign_spec_validation;
        ] );
      ( "methodology",
        [
          Alcotest.test_case "minimal budget" `Quick test_methodology_minimal_budget;
          Alcotest.test_case "grows budget" `Quick test_methodology_grows_budget;
          Alcotest.test_case "unreachable target" `Quick test_methodology_unreachable_target;
          Alcotest.test_case "stops on cancel" `Quick test_methodology_stops_on_cancel;
          Alcotest.test_case "unlimited never stopped" `Quick
            test_methodology_unlimited_never_stopped;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "candidate lists" `Quick test_ablation_candidate_lists;
          Alcotest.test_case "strategy ordering" `Quick test_ablation_strategy_ordering;
          Alcotest.test_case "generalization" `Quick test_ablation_generalization;
          Alcotest.test_case "allocation sensitivity" `Slow test_ablation_allocation_sensitivity;
          Alcotest.test_case "scheduler sensitivity" `Slow test_ablation_scheduler_sensitivity;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "sweep shapes" `Slow test_experiments_sweep_shapes;
          Alcotest.test_case "fig4 row" `Slow test_experiments_fig4_row;
          Alcotest.test_case "fig4 empty kind" `Quick test_experiments_fig4_empty_kind;
          Alcotest.test_case "fig5 cells" `Slow test_experiments_fig5_cells;
          Alcotest.test_case "ratio floor" `Quick test_experiments_ratio_floor;
          Alcotest.test_case "quality" `Quick test_experiments_quality;
          Alcotest.test_case "post-binding" `Quick test_experiments_post_binding;
          Alcotest.test_case "overhead fields" `Quick test_experiments_overhead_fields;
          Alcotest.test_case "sweep exhaustive lex order" `Quick
            test_sweep_exhaustive_lex_order;
        ] );
      ( "binders",
        [
          Alcotest.test_case "registry complete" `Quick test_binders_registered;
          Alcotest.test_case "obf matches direct" `Quick test_obf_binder_matches_direct;
          Alcotest.test_case "codesign chooses config" `Quick
            test_codesign_binder_chooses_config;
        ] );
      ( "determinism",
        [ Alcotest.test_case "jobs=1 = jobs=4" `Slow test_parallel_determinism ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_obf_binding_optimal;
            qcheck_thm2_exhaustive;
            qcheck_optimal_dominates_heuristic;
            qcheck_fast_matches_hungarian;
            qcheck_fold_product_matches_hungarian;
          ] );
    ]
