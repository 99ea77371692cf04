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
module Render = Rb_core.Render
module Testgen = Rb_testsupport.Testgen
module Combi = Rb_util.Combi
module Stats = Rb_util.Stats

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

(* The per-cycle Hungarian path the integer kernel replaced, kept as a
   differential oracle: one dense max-weight matching per cycle over
   every FU of [kind], unlocked FUs weighing 0. *)
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
    let fast_errors = Obf_binding.Fast.extend fast ~fixed:[] ~fu:0 ~subsets:[| subset |] in
    let config =
      Config.make ~scheme:Scheme.Sfll_rem
        ~locks:[ (0, Cost.subset_minterms table subset) ]
    in
    let public = Obf_binding.bind k config schedule allocation in
    let public_errors = Cost.expected_errors k public config in
    Alcotest.(check int) "Hungarian = public"
      (hungarian_best_errors table schedule allocation ~kind:Dfg.Add ~locks:[ (0, subset) ])
      public_errors;
    Alcotest.(check (array int)) "fast = public" [| public_errors |] fast_errors
  end

(* An adder-only kernel state over a random DFG, with its FU ids. *)
let fast_adders seed =
  let dfg = Testgen.random_dfg seed ~n_ops:16 in
  let trace = Testgen.skewed_trace (seed + 1) dfg in
  let schedule = Scheduler.path_based dfg in
  let allocation = Allocation.for_schedule schedule in
  let k = Kmatrix.build trace in
  let candidates = Array.of_list (Kmatrix.top_minterms k ~n:3) in
  let table = Cost.cand_table k candidates in
  (Obf_binding.Fast.prepare table schedule allocation ~kind:Dfg.Add, allocation)

let test_fast_rejects_wrong_kind_fu () =
  let fast, allocation = fast_adders 10 in
  let mul_fu = allocation.Allocation.adders in
  if allocation.Allocation.multipliers > 0 then
    match Obf_binding.Fast.extend fast ~fixed:[] ~fu:mul_fu ~subsets:[| [| 0 |] |] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "wrong-kind FU accepted"

let test_fast_rejects_repeated_fu () =
  let fast, _ = fast_adders 10 in
  match Obf_binding.Fast.extend fast ~fixed:[ (0, [| 0 |]) ] ~fu:0 ~subsets:[| [| 1 |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "repeated FU accepted"

(* A random kernel instance for the differential properties. Half the
   seeds take a random DFG under its path-based schedule; the other half
   take flat DFGs whose operations read one of a few input pairs,
   scattered over a few cycles, so identical operations and identical
   cycles repeat. FUs may exceed the schedule's need, and the candidate
   list mixes the most frequent minterms with ones that never occur. *)
let rec kernel_instance seed =
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
  instance_over rng seed dfg schedule

(* The trace, kind, allocation and candidate list of an instance over
   [schedule], drawn from [rng]. *)
and instance_over rng seed dfg schedule =
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
  (rng, schedule, allocation, kind, table, Array.length candidates, k)

(* Flat schedules up to 8 wide, the regime of the kernel-scale
   benchmarks: each of one to three cycles runs 1-8 additions and 1-8
   multiplications, every one reading a pair of three inputs. *)
let wide_instance seed =
  let rng = Rb_util.Rng.create seed in
  let b = Dfg.Builder.create "wide" in
  let inputs = Array.init 3 (fun i -> Dfg.Builder.input b (Printf.sprintf "in%d" i)) in
  let cycle_of = ref [] in
  for c = 0 to Rb_util.Rng.int rng 3 do
    List.iter
      (fun op ->
        for _ = 0 to Rb_util.Rng.int rng 8 do
          ignore (op b (Rb_util.Rng.pick rng inputs) (Rb_util.Rng.pick rng inputs));
          cycle_of := c :: !cycle_of
        done)
      [ Dfg.Builder.add; Dfg.Builder.mul ]
  done;
  let dfg = Dfg.Builder.finish b in
  instance_over rng seed dfg (Schedule.make dfg ~cycle_of:(Array.of_list (List.rev !cycle_of)))

let random_subset rng n_cands =
  Array.init (1 + Rb_util.Rng.int rng 3) (fun _ -> Rb_util.Rng.int rng n_cands)

(* A random prefix of FUs is fixed, in shuffled order, and the next FU
   is scored under every subset of a random list. *)
let qcheck_extend_matches_hungarian =
  QCheck2.Test.make ~name:"Fast.extend = per-cycle Hungarian" ~count:400
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng, schedule, allocation, kind, table, n_cands, _ = kernel_instance seed in
      let fast = Obf_binding.Fast.prepare table schedule allocation ~kind in
      let fus = Array.of_list (Allocation.fu_ids allocation kind) in
      Rb_util.Rng.shuffle rng fus;
      let n_fixed = Rb_util.Rng.int rng (Array.length fus) in
      let fixed = List.init n_fixed (fun i -> (fus.(i), random_subset rng n_cands)) in
      let fu = fus.(n_fixed) in
      let subsets = Array.init (1 + Rb_util.Rng.int rng 4) (fun _ -> random_subset rng n_cands) in
      Obf_binding.Fast.extend fast ~fixed ~fu ~subsets
      = Array.map
          (fun subset ->
            hungarian_best_errors table schedule allocation ~kind ~locks:((fu, subset) :: fixed))
          subsets)

let non_decreasing tuple =
  let rec go i = i >= Array.length tuple || (tuple.(i - 1) <= tuple.(i) && go (i + 1)) in
  go 1

(* Up to three of the instance's FUs of its kind, in random order. *)
let random_locked_fus rng allocation kind =
  let fus = Array.of_list (Allocation.fu_ids allocation kind) in
  Rb_util.Rng.shuffle rng fus;
  Array.sub fus 0 (1 + Rb_util.Rng.int rng (min 3 (Array.length fus)))

(* fold_product visits the non-decreasing subsequence of the full
   product, in the product's order. *)
let qcheck_fold_product_matches_hungarian =
  QCheck2.Test.make ~name:"Fast.fold_product = per-cycle Hungarian, in order" ~count:150
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng, schedule, allocation, kind, table, n_cands, _ = kernel_instance seed in
      let fast = Obf_binding.Fast.prepare table schedule allocation ~kind in
      let fus = random_locked_fus rng allocation kind in
      let subsets = Array.init (1 + Rb_util.Rng.int rng 4) (fun _ -> random_subset rng n_cands) in
      let expected =
        Combi_ref.fold_cartesian
          (Array.map (fun _ -> Array.init (Array.length subsets) Fun.id) fus)
          ~init:[]
          ~f:(fun acc tuple ->
            if not (non_decreasing tuple) then acc
            else begin
              let locks = Array.to_list (Array.mapi (fun i s -> (fus.(i), subsets.(s))) tuple) in
              (Array.copy tuple, hungarian_best_errors table schedule allocation ~kind ~locks)
              :: acc
            end)
      in
      let got =
        Obf_binding.Fast.fold_product fast ~fus ~subsets ~init:[] ~f:(fun acc tuple errors ->
            (Array.copy tuple, errors) :: acc)
      in
      got = expected)

let same_config a b =
  Config.locked_fus a = Config.locked_fus b
  && List.for_all
       (fun fu -> Minterm.Set.equal (Config.minterms_of a fu) (Config.minterms_of b fu))
       (Config.locked_fus a)

(* Codesign.optimal scores one ordering of each multiset of subsets;
   the reference scores every ordering, C(|C|,|M|)^|L| of them, by
   per-cycle Hungarian and keeps the first strictly best. *)
let qcheck_optimal_matches_ordered_search =
  QCheck2.Test.make ~name:"Codesign.optimal = search of every ordering" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng, schedule, allocation, kind, table, n_cands, k = kernel_instance seed in
      let fus = random_locked_fus rng allocation kind in
      let minterms_per_fu = 1 + Rb_util.Rng.int rng (min 2 n_cands) in
      let subsets =
        Array.of_list (Combi.k_subsets (Array.init n_cands Fun.id) minterms_per_fu)
      in
      let best = ref None in
      Combi_ref.fold_cartesian
        (Array.map (fun _ -> Array.init (Array.length subsets) Fun.id) fus)
        ~init:()
        ~f:(fun () tuple ->
          let locks = Array.to_list (Array.mapi (fun i s -> (fus.(i), subsets.(s))) tuple) in
          let errors = hungarian_best_errors table schedule allocation ~kind ~locks in
          match !best with
          | Some (best_errors, _) when best_errors >= errors -> ()
          | Some _ | None -> best := Some (errors, locks));
      let spec =
        {
          Codesign.scheme = Scheme.Sfll_rem;
          locked_fus = Array.to_list fus;
          minterms_per_fu;
          candidates = Cost.candidates table;
        }
      in
      match (!best, Codesign.optimal k schedule allocation spec) with
      | Some (errors, locks), `Solution opt ->
        let config =
          Config.make ~scheme:Scheme.Sfll_rem
            ~locks:(List.map (fun (fu, s) -> (fu, Cost.subset_minterms table s)) locks)
        in
        opt.Codesign.errors = errors && same_config opt.Codesign.config config
      | None, _ | _, `Too_large _ -> false)

(* The heuristic fixes the spec's FUs in order, each with the first
   candidate subset of maximum errors given the FUs fixed before it;
   the reference scores every step by per-cycle Hungarian. Half the
   instances are up to 8 wide. *)
let qcheck_heuristic_matches_greedy =
  QCheck2.Test.make ~name:"Codesign.heuristic = greedy by Hungarian" ~count:200
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng, schedule, allocation, kind, table, n_cands, k =
        if seed mod 2 = 0 then kernel_instance seed else wide_instance seed
      in
      let fus = Array.to_list (random_locked_fus rng allocation kind) in
      let minterms_per_fu = 1 + Rb_util.Rng.int rng (min 2 n_cands) in
      let subsets =
        Array.of_list (Combi.k_subsets (Array.init n_cands Fun.id) minterms_per_fu)
      in
      let fix_next fixed fu =
        let best = ref None in
        Array.iter
          (fun subset ->
            let locks = (fu, subset) :: fixed in
            let errors = hungarian_best_errors table schedule allocation ~kind ~locks in
            match !best with
            | Some (best_errors, _) when best_errors >= errors -> ()
            | Some _ | None -> best := Some (errors, locks))
          subsets;
        snd (Option.get !best)
      in
      let locks = List.fold_left fix_next [] fus in
      let spec =
        {
          Codesign.scheme = Scheme.Sfll_rem;
          locked_fus = fus;
          minterms_per_fu;
          candidates = Cost.candidates table;
        }
      in
      let heur = Codesign.heuristic k schedule allocation spec in
      let config =
        Config.make ~scheme:Scheme.Sfll_rem
          ~locks:(List.map (fun (fu, s) -> (fu, Cost.subset_minterms table s)) locks)
      in
      same_config heur.Codesign.config config
      && heur.Codesign.errors = hungarian_best_errors table schedule allocation ~kind ~locks
      && heur.Codesign.assignments_searched = List.length fus * Array.length subsets)

(* Both co-design searches lock exactly the spec's FUs, each with
   [minterms_per_fu] distinct minterms drawn from its candidate list. *)
let qcheck_codesign_locks_spec =
  QCheck2.Test.make ~name:"Codesign locks the spec's FUs with |M| candidates each" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng, schedule, allocation, kind, table, n_cands, k = kernel_instance seed in
      let spec =
        {
          Codesign.scheme = Scheme.Sfll_rem;
          locked_fus = Array.to_list (random_locked_fus rng allocation kind);
          minterms_per_fu = 1 + Rb_util.Rng.int rng (min 3 n_cands);
          candidates = Cost.candidates table;
        }
      in
      let candidates = Minterm.Set.of_list (Array.to_list spec.candidates) in
      let locks_spec (solution : Codesign.solution) =
        Config.locked_fus solution.config = List.sort Int.compare spec.locked_fus
        && List.for_all
             (fun fu ->
               let minterms = Config.minterms_of solution.config fu in
               Minterm.Set.cardinal minterms = spec.minterms_per_fu
               && Minterm.Set.subset minterms candidates)
             spec.locked_fus
      in
      locks_spec (Codesign.heuristic k schedule allocation spec)
      &&
      match Codesign.optimal k schedule allocation spec with
      | `Solution solution -> locks_spec solution
      | `Too_large _ -> false)

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
  (* At least three adders, so that three can be locked. *)
  let allocation = { allocation with Allocation.adders = max 3 allocation.Allocation.adders } in
  List.iter
    (fun (locked_fus, space) ->
      let spec =
        { Codesign.scheme = Scheme.Sfll_rem; locked_fus; minterms_per_fu = 2; candidates }
      in
      let label = Printf.sprintf "L=%d" (List.length locked_fus) in
      match Codesign.optimal k schedule allocation spec with
      | `Too_large _ -> Alcotest.failf "%s: tiny space reported too large" label
      | `Solution opt ->
        let heur = Codesign.heuristic k schedule allocation spec in
        Alcotest.(check bool) (label ^ ": optimal >= heuristic") true
          (opt.Codesign.errors >= heur.Codesign.errors);
        (* single locked FU: the heuristic IS the optimal algorithm *)
        if List.length locked_fus = 1 then
          Alcotest.(check int) "single FU: equal" opt.Codesign.errors heur.Codesign.errors;
        (* C(6,2) = 15 subsets: 15, C(16,2) and C(17,3) multisets. *)
        Alcotest.(check int) (label ^ ": space") space (Codesign.search_space spec);
        Alcotest.(check int) (label ^ ": searched all") space
          opt.Codesign.assignments_searched)
    [ ([ 0 ], 15); ([ 0; 1 ], 120); ([ 0; 1; 2 ], 680) ]

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

let test_codesign_space_saturates () =
  (* C(60,30)^3 and its multiset count C(C(60,30) + 2, 3) both exceed
     max_int: the space must saturate, never wrap to a small count. *)
  let schedule, allocation, k, _ = codesign_setting 26 in
  let allocation = { allocation with Allocation.adders = max 3 allocation.Allocation.adders } in
  let spec =
    {
      Codesign.scheme = Scheme.Sfll_rem;
      locked_fus = [ 0; 1; 2 ];
      minterms_per_fu = 30;
      candidates = Array.init 60 Minterm.of_int;
    }
  in
  Alcotest.(check int) "search_space" max_int (Codesign.search_space spec);
  match Codesign.optimal k schedule allocation spec with
  | `Too_large space -> Alcotest.(check int) "reported space" max_int space
  | `Solution _ -> Alcotest.fail "oversized space searched"

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

(* The locking shape: first-L FU ids of the kind, budget clamped to
   the candidate list, SFLL-rem. Expected ids are computed from the
   allocation's numbering (adders first), not from [fu_ids]. *)
let test_make_spec_shape () =
  let allocation = { Allocation.adders = 3; multipliers = 2 } in
  let c = Array.init 4 Minterm.of_int in
  let spec = Codesign.make_spec allocation Dfg.Mul ~locked_fus:2 ~minterms_per_fu:3 c in
  Alcotest.(check (list int)) "first two multipliers" [ 3; 4 ] spec.Codesign.locked_fus;
  Alcotest.(check int) "budget" 3 spec.Codesign.minterms_per_fu;
  Alcotest.(check bool) "SFLL-rem" true (spec.Codesign.scheme = Scheme.Sfll_rem);
  Alcotest.(check bool) "candidates kept" true (spec.Codesign.candidates == c);
  let clamped = Codesign.make_spec allocation Dfg.Add ~locked_fus:5 ~minterms_per_fu:9 c in
  Alcotest.(check (list int)) "FU count clamped" [ 0; 1; 2 ] clamped.Codesign.locked_fus;
  Alcotest.(check int) "budget clamped" 4 clamped.Codesign.minterms_per_fu;
  let none = Codesign.make_spec { allocation with Allocation.multipliers = 0 } Dfg.Mul
      ~locked_fus:2 ~minterms_per_fu:2 c
  in
  Alcotest.(check (list int)) "no FU of the kind" [] none.Codesign.locked_fus;
  match Codesign.validate_spec allocation none with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty shape validated"

let qcheck_make_spec_contract =
  QCheck2.Test.make ~name:"make_spec: first min L n FU ids, budget min m |C|" ~count:300
    QCheck2.Gen.(
      tup6 (int_range 0 5) (int_range 0 5) bool (int_range (-1) 7) (int_range (-1) 12)
        (int_range 0 12))
    (fun (adders, multipliers, add, l, m, n_cands) ->
      let allocation = { Allocation.adders; multipliers } in
      let kind = if add then Dfg.Add else Dfg.Mul in
      let n, base = if add then (adders, 0) else (multipliers, adders) in
      let c = Array.init n_cands Minterm.of_int in
      let spec = Codesign.make_spec allocation kind ~locked_fus:l ~minterms_per_fu:m c in
      spec.Codesign.locked_fus = List.init (max 0 (min l n)) (fun i -> base + i)
      && spec.Codesign.minterms_per_fu = min m n_cands
      && spec.Codesign.scheme = Scheme.Sfll_rem
      && spec.Codesign.candidates == c)

let qcheck_top_candidates_prefix =
  QCheck2.Test.make ~name:"top_candidates = length-<=10 prefix of all_minterms" ~count:60
    QCheck2.Gen.(pair (int_range 0 5_000) (int_range 1 40))
    (fun (seed, n_ops) ->
      let dfg = Testgen.random_dfg seed ~n_ops in
      let k = Kmatrix.build (Testgen.random_trace (seed + 1) dfg ~n:16) in
      List.for_all
        (fun kind ->
          let all = List.map fst (Kmatrix.all_minterms ~kind k) in
          let top = Array.to_list (Codesign.top_candidates k kind) in
          List.length top = min Codesign.n_candidates (List.length all)
          && top = List.filteri (fun i _ -> i < Codesign.n_candidates) all)
        [ Dfg.Add; Dfg.Mul ])

(* --------------------------------------------------------- methodology *)

(* One locked adder; the budget may grow to the whole candidate list. *)
let methodology_spec allocation candidates =
  Codesign.make_spec allocation Dfg.Add ~locked_fus:1
    ~minterms_per_fu:(Array.length candidates) candidates

let test_methodology_minimal_budget () =
  let schedule, allocation, k, candidates = codesign_setting 30 in
  let small_goal = { Methodology.target_error_events = 1; min_lambda = 10.0 } in
  let plan =
    Methodology.design k schedule allocation (methodology_spec allocation candidates) small_goal
  in
  Alcotest.(check int) "one minterm suffices" 1 plan.Methodology.minterms_per_fu;
  Alcotest.(check bool) "meets error target" true plan.Methodology.meets_error_target;
  Alcotest.(check bool) "resilient at h=1" true plan.Methodology.meets_resilience;
  Alcotest.(check bool) "no topup needed" false plan.Methodology.exponential_topup

let test_methodology_grows_budget () =
  let schedule, allocation, k, candidates = codesign_setting 32 in
  let spec = methodology_spec allocation candidates in
  let base_plan =
    Methodology.design k schedule allocation spec
      { Methodology.target_error_events = 1; min_lambda = 1.0 }
  in
  let hungry =
    {
      Methodology.target_error_events = base_plan.Methodology.achieved_errors * 2;
      min_lambda = 1.0;
    }
  in
  let plan = Methodology.design k schedule allocation spec hungry in
  Alcotest.(check bool) "budget grew" true
    (plan.Methodology.minterms_per_fu > base_plan.Methodology.minterms_per_fu
     || not plan.Methodology.meets_error_target)

let test_methodology_unreachable_target () =
  let schedule, allocation, k, candidates = codesign_setting 34 in
  let plan =
    Methodology.design k schedule allocation (methodology_spec allocation candidates)
      { Methodology.target_error_events = max_int; min_lambda = 1.0 }
  in
  Alcotest.(check bool) "reports failure" false plan.Methodology.meets_error_target;
  Alcotest.(check int) "exhausted budget" (Array.length candidates)
    plan.Methodology.minterms_per_fu

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
      Alcotest.(check bool) "sampled exactly above the cap" true
        (Array.length r.Experiments.combos < r.Experiments.combos_total
         = (r.Experiments.combos_total > 50));
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
  let key = { Experiments.sk_benchmark = "fir"; sk_kind = Dfg.Mul } in
  match Experiments.fig4_rows [ (key, results) ] with
  | [ { Experiments.row_ratios = r; _ } ] ->
    Alcotest.(check bool) "obf ratio >= 1" true (r.Experiments.obf_vs_area >= 1.0);
    Alcotest.(check bool) "codesign >= obf (vs area)" true
      (r.Experiments.cd_heur_vs_area >= r.Experiments.obf_vs_area)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_experiments_fig4_empty_kind () =
  let bench = Rb_workload.Benchmark.find "ecb_enc4" in
  let schedule = Rb_workload.Benchmark.schedule bench in
  let trace = Rb_workload.Benchmark.trace ~length:64 bench in
  let ctx = Experiments.context ~name:"ecb_enc4" schedule trace in
  let results = Experiments.sweep ~max_combos_per_config:20 ctx Dfg.Mul in
  Alcotest.(check bool) "no mult configs" true (results = []);
  Alcotest.(check bool) "no row" true
    (Experiments.fig4_rows
       [ ({ Experiments.sk_benchmark = "ecb_enc4"; sk_kind = Dfg.Mul }, results) ]
     = [])

let test_experiments_fig5_cells () =
  let ctx = small_context () in
  let results =
    Experiments.sweep ~max_combos_per_config:30 ~max_optimal_assignments:2_000 ctx Dfg.Mul
  in
  let cells =
    Experiments.fig5_cells [ ({ Experiments.sk_benchmark = "fir"; sk_kind = Dfg.Mul }, results) ]
  in
  Alcotest.(check int) "seven groups" 7 (List.length cells);
  let avg = List.nth cells 6 in
  Alcotest.(check string) "last is Avg." "Avg." avg.Experiments.cell_label;
  Alcotest.(check bool) "avg ratios >= 1" true
    (avg.Experiments.cell_ratios.Experiments.obf_vs_area >= 1.0)

(* The one ratio fold against a reference built the long way: every
   Fig. 4 row, Fig. 5 cell and headline mean equals [Stats.mean] over
   its own list of per-combination [ratio_vs] values, in result order
   then combination order, with exact float equality. The small
   combination cap samples some configurations. *)
let test_ratio_fold_reference () =
  let ctx = small_context () in
  let suite =
    List.map
      (fun kind ->
        ( { Experiments.sk_benchmark = "fir"; sk_kind = kind },
          Experiments.sweep ~max_combos_per_config:50 ctx kind ))
      [ Dfg.Add; Dfg.Mul ]
  in
  let pooled = List.concat_map snd suite in
  Alcotest.(check bool) "a sampled configuration" true
    (List.exists
       (fun (r : Experiments.config_result) -> Array.length r.combos < r.combos_total)
       pooled);
  let mean results security baseline =
    Stats.mean
      (List.concat_map
         (fun (r : Experiments.config_result) ->
           Array.to_list
             (Array.map (fun c -> Experiments.ratio_vs (security r c) (baseline c)) r.combos))
         results)
  in
  let obf _ (c : Experiments.combo_errors) = c.e_obf in
  let opt (r : Experiments.config_result) _ = r.e_codesign_optimal in
  let heur (r : Experiments.config_result) _ = r.e_codesign_heuristic in
  let area (c : Experiments.combo_errors) = c.e_area in
  let power (c : Experiments.combo_errors) = c.e_power in
  let exact name expected actual = Alcotest.(check (float 0.0)) name expected actual in
  let check_ratios name results (r : Experiments.ratios) =
    exact (name ^ " obf/area") (mean results obf area) r.obf_vs_area;
    exact (name ^ " obf/power") (mean results obf power) r.obf_vs_power;
    exact (name ^ " opt/area") (mean results opt area) r.cd_opt_vs_area;
    exact (name ^ " opt/power") (mean results opt power) r.cd_opt_vs_power;
    exact (name ^ " heur/area") (mean results heur area) r.cd_heur_vs_area;
    exact (name ^ " heur/power") (mean results heur power) r.cd_heur_vs_power
  in
  let rows = Experiments.fig4_rows suite in
  Alcotest.(check int) "a row per kind" 2 (List.length rows);
  List.iter2
    (fun (key, results) (row : Experiments.fig4_row) ->
      Alcotest.(check bool) "row kind" true (row.row_kind = key.Experiments.sk_kind);
      check_ratios ("fig4 " ^ Dfg.kind_label row.row_kind) results row.row_ratios)
    suite rows;
  let groups =
    [
      (fun (r : Experiments.config_result) -> r.locked_fu_count = 1);
      (fun r -> r.locked_fu_count = 2);
      (fun r -> r.locked_fu_count = 3);
      (fun r -> r.minterms_per_fu = 1);
      (fun r -> r.minterms_per_fu = 2);
      (fun r -> r.minterms_per_fu = 3);
      (fun _ -> true);
    ]
  in
  let cells = Experiments.fig5_cells suite in
  List.iter2
    (fun keep (cell : Experiments.fig5_cell) ->
      check_ratios ("fig5 " ^ cell.cell_label) (List.filter keep pooled) cell.cell_ratios)
    groups cells;
  (* The printed Fig. 5 row of each group shows the obf-aware and the
     heuristic co-design ratios, vs area then vs power. *)
  let lines = String.split_on_char '\n' (Render.fig5 ~cells) in
  List.iter2
    (fun keep (cell : Experiments.fig5_cell) ->
      let results = List.filter keep pooled in
      let line =
        List.find (String.starts_with ~prefix:(cell.cell_label ^ " ")) lines
      in
      let is_ratio t =
        String.ends_with ~suffix:"x" t
        && Float.of_string_opt (String.sub t 0 (String.length t - 1)) <> None
      in
      Alcotest.(check (list string))
        ("fig5 printed " ^ cell.cell_label)
        (List.map Render.fmt_ratio
           [ mean results obf area; mean results obf power; mean results heur area;
             mean results heur power ])
        (List.filter is_ratio (String.split_on_char ' ' line)))
    groups cells;
  (* The headline lists hold each row's (area, power) pair, last row
     first. *)
  let pairs security =
    List.fold_left
      (fun acc (_, results) -> mean results security area :: mean results security power :: acc)
      [] suite
  in
  let h = Experiments.headline suite in
  exact "headline obf" (Stats.mean (pairs obf)) h.Experiments.hl_obf_mean;
  exact "headline co-design" (Stats.mean (pairs heur)) h.Experiments.hl_cd_mean

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

(* One guard for every 2 x 2 probe: no FU of the kind, or fewer than
   2 candidates, is [None]; the ablation drivers that cannot return
   [None] raise instead. *)
let test_probe_guard () =
  let ctx = small_context () in
  let probe kind candidates =
    Experiments.probe ctx.Experiments.k ctx.Experiments.schedule ctx.Experiments.allocation
      kind candidates
  in
  let top = Experiments.candidates_for ctx Dfg.Mul in
  Alcotest.(check bool) "one candidate" true (probe Dfg.Mul (Array.sub top 0 1) = None);
  (match probe Dfg.Mul (Array.sub top 0 2) with
   | None -> Alcotest.fail "two candidates refused"
   | Some solution ->
     let config = solution.Codesign.config in
     Alcotest.(check (list int)) "first two FUs"
       (List.filteri (fun i _ -> i < 2) (Allocation.fu_ids ctx.Experiments.allocation Dfg.Mul))
       (Config.locked_fus config);
     List.iter
       (fun fu ->
         Alcotest.(check int) "two minterms" 2
           (Minterm.Set.cardinal (Config.minterms_of config fu)))
       (Config.locked_fus config));
  let ecb = Rb_workload.Benchmark.find "ecb_enc4" in
  let schedule = Rb_workload.Benchmark.schedule ecb in
  let trace = Rb_workload.Benchmark.trace ~length:32 ecb in
  let ectx = Experiments.context ~name:"ecb_enc4" schedule trace in
  Alcotest.(check bool) "no FU" true
    (Experiments.probe ectx.Experiments.k schedule ectx.Experiments.allocation Dfg.Mul
       (Experiments.candidates_for ectx Dfg.Add)
     = None);
  Alcotest.(check int) "no strategy rows" 0
    (List.length (Ablation.candidate_strategies ectx Dfg.Mul));
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no FU accepted" name
    | exception Invalid_argument _ -> ()
  in
  raises "generalization" (fun () -> ignore (Ablation.generalization schedule trace Dfg.Mul));
  raises "profiling budget" (fun () -> ignore (Ablation.profiling_budget schedule trace Dfg.Mul))

let test_experiments_overhead_fields () =
  let ctx = small_context () in
  let ov = Experiments.overhead ctx in
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
  let table = Cost.cand_table ctx.Experiments.k candidates in
  let results =
    Experiments.sweep ~max_combos_per_config:10_000 ctx kind
    |> List.filter (fun (r : Experiments.config_result) ->
           r.locked_fu_count <= 2 && r.minterms_per_fu <= 2)
  in
  Alcotest.(check int) "four configurations" 4 (List.length results);
  List.iter
    (fun (r : Experiments.config_result) ->
      Alcotest.(check int) "exhaustive" r.combos_total (Array.length r.combos);
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
                 hungarian_best_errors table ctx.Experiments.schedule
                   ctx.Experiments.allocation ~kind ~locks ))
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

(* Once its configuration's fold covers the full candidate list, a
   combination's e_obf is looked up in the fold's values; a cap of one
   assignment shrinks every fold to a single subset, so every
   combination is scored by its own DP instead. Single-FU
   configurations are enumerated in subset order, so there each score
   is also checked against per-cycle Hungarian. *)
let test_sweep_lookup_matches_dp () =
  let ctx = small_context () in
  List.iter
    (fun kind ->
      let run cap =
        Experiments.sweep ~max_combos_per_config:50 ~max_optimal_assignments:cap ctx kind
      in
      let looked_up = run max_int and scored = run 1 in
      let candidates = Experiments.candidates_for ctx kind in
      let table = Cost.cand_table ctx.Experiments.k candidates in
      let fu = List.hd (Allocation.fu_ids ctx.Experiments.allocation kind) in
      Alcotest.(check int) "same configurations" (List.length looked_up) (List.length scored);
      List.iter2
        (fun (a : Experiments.config_result) (b : Experiments.config_result) ->
          Alcotest.(check int) "looked up" Codesign.n_candidates a.optimal_candidates_used;
          Alcotest.(check int) "one subset" b.minterms_per_fu b.optimal_candidates_used;
          Alcotest.(check bool) "combos equal" true (a.combos = b.combos);
          if b.locked_fu_count = 1 && Array.length b.combos = b.combos_total then
            List.iteri
              (fun t subset ->
                Alcotest.(check int) "scored = Hungarian"
                  (hungarian_best_errors table ctx.Experiments.schedule
                     ctx.Experiments.allocation ~kind ~locks:[ (fu, subset) ])
                  b.combos.(t).e_obf)
              (Combi.k_subsets (Array.init (Array.length candidates) Fun.id) b.minterms_per_fu))
        looked_up scored)
    [ Dfg.Add; Dfg.Mul ]

(* Overlapping locked sets can beat every disjoint choice: on
   motion2's multipliers with 2 locked FUs x 2 minterms, the optimal
   co-design shares a minterm between the FUs, and no tuple of
   disjoint subsets reaches its Eqn. 2 value. *)
let test_optimal_overlap_beats_disjoint () =
  let bench = Rb_workload.Benchmark.find "motion2" in
  let schedule = Rb_workload.Benchmark.schedule bench in
  let ctx = Experiments.context ~name:"motion2" schedule (Rb_workload.Benchmark.trace bench) in
  let kind = Dfg.Mul in
  let candidates = Experiments.candidates_for ctx kind in
  let allocation = ctx.Experiments.allocation in
  let spec = Codesign.make_spec allocation kind ~locked_fus:2 ~minterms_per_fu:2 candidates in
  let optimum =
    match Codesign.optimal ctx.Experiments.k schedule allocation spec with
    | `Solution s -> s
    | `Too_large _ -> Alcotest.fail "search space within the default cap"
  in
  let fast =
    Obf_binding.Fast.prepare (Cost.cand_table ctx.Experiments.k candidates) schedule allocation
      ~kind
  in
  let subsets =
    Array.of_list (Combi.k_subsets (Array.init (Array.length candidates) Fun.id) 2)
  in
  let disjoint a b = Array.for_all (fun c -> not (Array.mem c b)) a in
  let best_disjoint =
    Obf_binding.Fast.fold_product fast
      ~fus:(Array.of_list spec.Codesign.locked_fus)
      ~subsets ~init:0
      ~f:(fun acc tuple errors ->
        if disjoint subsets.(tuple.(0)) subsets.(tuple.(1)) then max acc errors else acc)
  in
  let config = optimum.Codesign.config in
  (match Config.locked_fus config with
   | [ a; b ] ->
     Alcotest.(check bool) "optimum shares a minterm" false
       (Minterm.Set.is_empty
          (Minterm.Set.inter (Config.minterms_of config a) (Config.minterms_of config b)))
   | _ -> Alcotest.fail "two locked FUs");
  Alcotest.(check (pair int int)) "optimum vs best disjoint" (1048, 900)
    (optimum.Codesign.errors, best_disjoint)

(* The kernel-scale regime: fft128 scheduled 8 wide on 8 adders and 8
   multipliers, co-designed at 2 FUs x 2 minterms, both kinds, by both
   searches. *)
let test_codesign_fft128_golden () =
  let bench = Rb_workload.Benchmark.parametric "fft" ~n:128 in
  let schedule =
    Rb_workload.Benchmark.schedule ~limits:{ Scheduler.adders = 8; multipliers = 8 } bench
  in
  let k = Kmatrix.build (Rb_workload.Benchmark.trace bench) in
  let allocation = Allocation.for_schedule schedule in
  let buf = Buffer.create 512 in
  List.iter
    (fun kind ->
      Alcotest.(check int) "8 wide" 8 (Schedule.max_concurrency schedule kind);
      let spec =
        Codesign.make_spec allocation kind ~locked_fus:2 ~minterms_per_fu:2
          (Codesign.top_candidates k kind)
      in
      let line name (s : Codesign.solution) =
        Printf.bprintf buf "%s %s: %s\n  errors %d, assignments searched %d\n"
          (Dfg.kind_label kind) name
          (Format.asprintf "%a" Config.pp s.Codesign.config)
          s.Codesign.errors s.Codesign.assignments_searched
      in
      line "heuristic" (Codesign.heuristic k schedule allocation spec);
      match Codesign.optimal k schedule allocation spec with
      | `Solution s -> line "optimal" s
      | `Too_large _ -> Alcotest.fail "search space within the default cap")
    [ Dfg.Add; Dfg.Mul ];
  Alcotest.(check string) "codesign_fft128.txt"
    (Testgen.read_golden "codesign_fft128.txt")
    (Buffer.contents buf)

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
      spec =
        Codesign.make_spec ctx.Experiments.allocation Dfg.Add ~locked_fus:1 ~minterms_per_fu:2
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
  (* the spec's locked-FU set, minterms drawn from its candidate list *)
  Alcotest.(check (list int)) "locked FUs preserved"
    input.Binders.spec.Codesign.locked_fus
    (Config.locked_fus out.Binders.config);
  let cands = Array.to_list input.Binders.spec.Codesign.candidates in
  List.iter
    (fun fu ->
      Minterm.Set.iter
        (fun m ->
          Alcotest.(check bool) "minterm from candidate list" true (List.mem m cands))
        (Config.minterms_of out.Binders.config fu))
    (Config.locked_fus out.Binders.config);
  let empty = { input.Binders.spec with Codesign.locked_fus = [] } in
  match Binders.bind Binders.Codesign { input with Binders.spec = empty } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "codesign binder accepted a spec locking no FU"

(* ------------------------------------------------- parallel determinism *)

module Pool = Rb_util.Pool

module Metrics = Rb_util.Metrics

(* The PR-level guard: fanning a sweep suite over a 4-worker pool must
   render byte-identical tables to the single-job run, and the
   deterministic metrics counters (logical-work counts, not timings)
   must agree too — this is what lets CI's perf gate compare counters
   exactly regardless of --jobs. The suite runs at its only settings,
   the sweep defaults; fir's 2-FU x 3-minterm space (120^2
   combinations) is above the 2000 cap, so the sampled branch runs
   next to the exhaustive one. *)
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
          let suite = Experiments.sweep_suite ~pool ctxs in
          let sampled =
            List.exists
              (fun (_, results) ->
                List.exists
                  (fun (r : Experiments.config_result) ->
                    Array.length r.combos < r.combos_total)
                  results)
              suite
          in
          Alcotest.(check bool) "a sampled configuration" true sampled;
          let fig4 =
            Render.fig4
              ~rows:(Experiments.fig4_rows suite)
              ~concentrations:(Experiments.concentrations ctxs)
          in
          let fig5 =
            Render.fig5 ~cells:(Experiments.fig5_cells suite)
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
          Alcotest.test_case "fast repeated FU check" `Quick test_fast_rejects_repeated_fu;
        ] );
      ( "codesign",
        [
          Alcotest.test_case "optimal vs heuristic" `Quick test_codesign_optimal_vs_heuristic;
          Alcotest.test_case "beats fixed assignment" `Quick test_codesign_beats_fixed_assignment;
          Alcotest.test_case "solution consistency" `Quick test_codesign_config_is_consistent;
          Alcotest.test_case "too-large guard" `Quick test_codesign_too_large_guard;
          Alcotest.test_case "oversized space saturates" `Quick test_codesign_space_saturates;
          Alcotest.test_case "spec validation" `Quick test_codesign_spec_validation;
          Alcotest.test_case "make_spec shape" `Quick test_make_spec_shape;
          Alcotest.test_case "fft128 golden" `Quick test_codesign_fft128_golden;
        ] );
      ( "methodology",
        [
          Alcotest.test_case "minimal budget" `Quick test_methodology_minimal_budget;
          Alcotest.test_case "grows budget" `Quick test_methodology_grows_budget;
          Alcotest.test_case "unreachable target" `Quick test_methodology_unreachable_target;
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
          Alcotest.test_case "ratio fold = reference means" `Quick test_ratio_fold_reference;
          Alcotest.test_case "ratio floor" `Quick test_experiments_ratio_floor;
          Alcotest.test_case "quality" `Quick test_experiments_quality;
          Alcotest.test_case "post-binding" `Quick test_experiments_post_binding;
          Alcotest.test_case "probe guard" `Quick test_probe_guard;
          Alcotest.test_case "overhead fields" `Quick test_experiments_overhead_fields;
          Alcotest.test_case "sweep exhaustive lex order" `Quick
            test_sweep_exhaustive_lex_order;
          Alcotest.test_case "sweep lookup = per-combination DP" `Quick
            test_sweep_lookup_matches_dp;
          Alcotest.test_case "optimal overlap beats disjoint" `Quick
            test_optimal_overlap_beats_disjoint;
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
            qcheck_extend_matches_hungarian;
            qcheck_heuristic_matches_greedy;
            qcheck_fold_product_matches_hungarian;
            qcheck_optimal_matches_ordered_search;
            qcheck_codesign_locks_spec;
            qcheck_make_spec_contract;
            qcheck_top_candidates_prefix;
          ] );
    ]
