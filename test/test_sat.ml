module Solver = Rb_sat.Solver
module Order_heap = Rb_sat.Order_heap
module Tseitin = Rb_sat.Tseitin
module Attack = Rb_sat.Attack
module Netlist = Rb_netlist.Netlist
module Circuits = Rb_netlist.Circuits
module Lock = Rb_netlist.Lock
module Rng = Rb_util.Rng
module Limits = Rb_util.Limits
module Faults = Rb_util.Faults

(* ------------------------------------------------------------- solver *)

let test_trivial_sat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ v ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "model" true (Solver.value s v)

let test_trivial_unsat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ v ];
  Solver.add_clause s [ -v ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_empty_clause_unsat () =
  let s = Solver.create () in
  ignore (Solver.new_var s);
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_implication_chain () =
  let s = Solver.create () in
  let n = 50 in
  let first = Solver.new_vars s n in
  for i = 0 to n - 2 do
    Solver.add_clause s [ -(first + i); first + i + 1 ]
  done;
  Solver.add_clause s [ first ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "chain propagated" true (Solver.value s (first + n - 1))

let pigeonhole pigeons holes =
  let s = Solver.create () in
  let var p h = 1 + (p * holes) + h in
  ignore (Solver.new_vars s (pigeons * holes));
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> var p h))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ -(var p1 h); -(var p2 h) ]
      done
    done
  done;
  s

let test_pigeonhole_unsat () =
  Alcotest.(check bool) "php(5,4)" true (Solver.solve (pigeonhole 5 4) = Solver.Unsat)

let test_pigeonhole_sat_when_enough_holes () =
  Alcotest.(check bool) "php(4,4)" true (Solver.solve (pigeonhole 4 4) = Solver.Sat)

let test_incremental_solving () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ a; b ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ -a ];
  Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "b forced" true (Solver.value s b);
  Solver.add_clause s [ -b ];
  Alcotest.(check bool) "now unsat" true (Solver.solve s = Solver.Unsat)

let test_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ -a; b ];
  Alcotest.(check bool) "assume a" true (Solver.solve ~assumptions:[ a ] s = Solver.Sat);
  Alcotest.(check bool) "b implied" true (Solver.value s b);
  Alcotest.(check bool) "assume a and -b fails" true
    (Solver.solve ~assumptions:[ a; -b ] s = Solver.Unsat);
  Alcotest.(check bool) "recoverable" true (Solver.solve s = Solver.Sat)

let test_unknown_variable_rejected () =
  let s = Solver.create () in
  match Solver.add_clause s [ 3 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown variable accepted"

let test_stats_progress () =
  let s = pigeonhole 5 4 in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "searched" true (st.Solver.conflicts > 0 && st.Solver.propagations > 0)

(* ----------------------------------------------------- solver budgets *)

let test_solve_conflict_budget_unknown () =
  (* php(7,6) costs far more than 10 conflicts; the budget must stop
     the search instead of deciding. *)
  let s = pigeonhole 7 6 in
  (match Solver.solve ~limit:(Limits.conflicts 10) s with
  | Solver.Unknown Limits.Conflicts -> ()
  | Solver.Unknown _ -> Alcotest.fail "wrong reason"
  | Solver.Sat | Solver.Unsat -> Alcotest.fail "10 conflicts cannot decide php(7,6)");
  (* The solver stays usable: an unbudgeted re-solve still decides. *)
  Alcotest.(check bool) "still decides without a limit" true
    (Solver.solve s = Solver.Unsat)

let test_solve_propagation_budget_unknown () =
  let s = pigeonhole 7 6 in
  match Solver.solve ~limit:(Limits.make ~max_propagations:5 ()) s with
  | Solver.Unknown Limits.Propagations -> ()
  | _ -> Alcotest.fail "propagation budget should trip first"

let test_solve_budget_is_per_call () =
  Faults.with_config None @@ fun () ->
  (* Budgets meter each call's own work, not the solver's lifetime
     totals: a budget that covers one full solve covers a repeat too. *)
  let probe = pigeonhole 4 4 in
  Alcotest.(check bool) "probe solves" true (Solver.solve probe = Solver.Sat);
  let budget = (Solver.stats probe).Solver.conflicts + 1 in
  let s = pigeonhole 4 4 in
  let limit = Limits.conflicts budget in
  Alcotest.(check bool) "first budgeted solve" true
    (Solver.solve ~limit s = Solver.Sat);
  Alcotest.(check bool) "second solve has a fresh budget" true
    (Solver.solve ~limit s = Solver.Sat)

let test_solve_cancelled () =
  let flag = Limits.new_cancel () in
  Limits.cancel flag;
  let s = pigeonhole 5 4 in
  match Solver.solve ~limit:(Limits.make ~cancel:flag ()) s with
  | Solver.Unknown Limits.Cancelled -> ()
  | _ -> Alcotest.fail "raised cancel flag should stop the solve"

let test_solve_generous_budget_decides () =
  Faults.with_config None @@ fun () ->
  let s = pigeonhole 5 4 in
  Alcotest.(check bool) "large budget changes nothing" true
    (Solver.solve ~limit:(Limits.conflicts 10_000_000) s = Solver.Unsat)

let test_solve_budget_fault_site () =
  Faults.with_config
    (Some { Faults.seed = 1; rate_per_mille = 1000; sites = [ "sat/budget" ] })
    (fun () ->
      let s = Solver.create () in
      let v = Solver.new_var s in
      Solver.add_clause s [ v ];
      (* The site only arms budgeted solves: unlimited calls are never
         perturbed, so ordinary solves ignore a fault run. *)
      Alcotest.(check bool) "unlimited solve untouched" true
        (Solver.solve s = Solver.Sat);
      match Solver.solve ~limit:(Limits.conflicts 1_000_000) s with
      | Solver.Unknown Limits.Conflicts -> ()
      | _ -> Alcotest.fail "injected budget exhaustion expected")

let eval_clauses clauses value =
  List.for_all
    (fun c -> List.exists (fun l -> if l > 0 then value l else not (value (-l))) c)
    clauses

let qcheck_incremental_matches_batch =
  (* solving after each clause must end with the same verdict as
     solving once with all clauses *)
  QCheck2.Test.make ~name:"incremental solving matches batch" ~count:60
    QCheck2.Gen.(pair (int_range 0 50_000) (int_range 1 30))
    (fun (seed, n_clauses) ->
      let rng = Rng.create seed in
      let n_vars = 7 in
      let clauses =
        List.init n_clauses (fun _ ->
            List.init 3 (fun _ ->
                let v = 1 + Rng.int rng n_vars in
                if Rng.bool rng then v else -v))
      in
      let batch = Solver.create () in
      ignore (Solver.new_vars batch n_vars);
      List.iter (Solver.add_clause batch) clauses;
      let incremental = Solver.create () in
      ignore (Solver.new_vars incremental n_vars);
      let verdicts =
        List.map
          (fun c ->
            Solver.add_clause incremental c;
            Solver.solve incremental)
          clauses
      in
      (* verdicts are monotone: once Unsat, always Unsat *)
      let rec monotone = function
        | Solver.Unsat :: Solver.Sat :: _ -> false
        | _ :: rest -> monotone rest
        | [] -> true
      in
      monotone verdicts
      && List.nth verdicts (List.length verdicts - 1) = Solver.solve batch)

let qcheck_solver_vs_brute_force =
  QCheck2.Test.make ~name:"CDCL matches brute force on random 3-SAT" ~count:200
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 45))
    (fun (seed, n_clauses) ->
      let rng = Rng.create seed in
      let n_vars = 9 in
      let clauses =
        List.init n_clauses (fun _ ->
            List.init 3 (fun _ ->
                let v = 1 + Rng.int rng n_vars in
                if Rng.bool rng then v else -v))
      in
      let s = Solver.create () in
      ignore (Solver.new_vars s n_vars);
      List.iter (Solver.add_clause s) clauses;
      let brute =
        let rec try_model m =
          m < 1 lsl n_vars
          && (eval_clauses clauses (fun v -> (m lsr (v - 1)) land 1 = 1) || try_model (m + 1))
        in
        try_model 0
      in
      match Solver.solve s with
      | Sat -> brute && eval_clauses clauses (fun v -> Solver.value s v)
      | Unsat -> not brute
      | Unknown _ -> false (* no limit passed: must decide *))

(* --------------------------------------------------------- order heap *)

let test_heap_pop_follows_activity () =
  let h = Order_heap.create () in
  Order_heap.ensure h 5;
  Order_heap.bump h 3 10.0;
  Order_heap.bump h 1 5.0;
  Order_heap.bump h 4 7.5;
  Alcotest.(check bool) "valid after bumps" true (Order_heap.valid h);
  Alcotest.(check int) "highest activity first" 3 (Order_heap.pop h);
  Alcotest.(check int) "then next" 4 (Order_heap.pop h);
  Alcotest.(check int) "then next" 1 (Order_heap.pop h);
  ignore (Order_heap.pop h);
  ignore (Order_heap.pop h);
  Alcotest.(check int) "empty pops 0" 0 (Order_heap.pop h);
  Alcotest.(check int) "empty size" 0 (Order_heap.size h)

let test_heap_reinsert_and_membership () =
  let h = Order_heap.create () in
  Order_heap.ensure h 3;
  Alcotest.(check bool) "in heap after ensure" true (Order_heap.in_heap h 2);
  let v = Order_heap.pop h in
  Alcotest.(check bool) "popped var left" false (Order_heap.in_heap h v);
  Order_heap.insert h v;
  Order_heap.insert h v;
  (* double insert is a no-op *)
  Alcotest.(check int) "size back to 3" 3 (Order_heap.size h);
  Alcotest.(check bool) "valid" true (Order_heap.valid h)

let test_heap_set_activity_decrease () =
  let h = Order_heap.create () in
  Order_heap.ensure h 6;
  for v = 1 to 6 do
    Order_heap.bump h v (float_of_int v)
  done;
  (* Demote the current maximum below everything else: it must sift
     down, not stay at the root. *)
  Order_heap.set_activity h 6 0.5;
  Alcotest.(check bool) "valid after decrease" true (Order_heap.valid h);
  let order = List.init 6 (fun _ -> Order_heap.pop h) in
  Alcotest.(check (list int)) "demoted var pops last" [ 5; 4; 3; 2; 1; 6 ] order

let test_heap_rescale_preserves_order () =
  let h = Order_heap.create () in
  Order_heap.ensure h 8;
  for v = 1 to 8 do
    Order_heap.bump h v (float_of_int v *. 1e99)
  done;
  Order_heap.rescale h 1e-100;
  Alcotest.(check bool) "valid after rescale" true (Order_heap.valid h);
  Alcotest.(check (float 1e-9)) "activity scaled" 0.8
    (Order_heap.activity h 8);
  let order = List.init 8 (fun _ -> Order_heap.pop h) in
  Alcotest.(check (list int)) "order preserved" [ 8; 7; 6; 5; 4; 3; 2; 1 ] order

let test_heap_random_ops_keep_invariant () =
  let rng = Rng.create 7 in
  let h = Order_heap.create () in
  Order_heap.ensure h 40;
  for step = 1 to 2000 do
    (match Rng.int rng 4 with
    | 0 -> Order_heap.bump h (1 + Rng.int rng 40) (Rng.float rng 10.0)
    | 1 -> Order_heap.set_activity h (1 + Rng.int rng 40) (Rng.float rng 10.0)
    | 2 -> ignore (Order_heap.pop h)
    | _ -> Order_heap.insert h (1 + Rng.int rng 40));
    if step mod 100 = 0 then
      Alcotest.(check bool) "invariant holds" true (Order_heap.valid h)
  done;
  (* Re-admit everything, rebuild, and drain: activities must come out
     non-increasing. *)
  for v = 1 to 40 do
    Order_heap.insert h v
  done;
  Order_heap.rebuild h;
  let rec drain last =
    let v = Order_heap.pop h in
    if v = 0 then true
    else
      let a = Order_heap.activity h v in
      a <= last +. 1e-12 && drain a
  in
  Alcotest.(check bool) "drain non-increasing" true (drain infinity)

(* ---------------------------------------------------------- clause db *)

(* Deterministic reduction workload: php(8,7) costs a few thousand
   conflicts in one solve call, comfortably past the first reduction
   threshold, with a verdict known in advance. *)
let test_db_reduction_on_pigeonhole () =
  let s = pigeonhole 8 7 in
  Alcotest.(check bool) "php(8,7) unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "reductions happened" true (Solver.db_reductions s >= 1);
  Alcotest.(check bool) "clauses removed" true (Solver.removed_clauses s > 0);
  let st = Solver.stats s in
  Alcotest.(check bool) "database shrank" true
    (Solver.live_learnt_clauses s < st.learned);
  Alcotest.(check bool) "reasons survive reduction" true (Solver.reasons_are_live s)

(* Random 3-SAT with three distinct variables per clause, drawn in the
   same order as the solver-bench generator in bench/main.ml, so a
   seed here is the same instance as the bench's. *)
let random_3sat rng ~n_vars ~n_clauses =
  List.init n_clauses (fun _ ->
      let rec distinct () =
        let a = 1 + Rng.int rng n_vars in
        let b = 1 + Rng.int rng n_vars in
        let c = 1 + Rng.int rng n_vars in
        if a = b || b = c || a = c then distinct () else (a, b, c)
      in
      let a, b, c = distinct () in
      let sign x = if Rng.bool rng then x else -x in
      [ sign a; sign b; sign c ])

let test_db_reduction_keeps_solver_usable () =
  (* A satisfiable phase-transition instance (the solver-bench pinned
     seed): thousands of conflicts, so the database is reduced at
     least once, and the model can be checked directly. *)
  let rng = Rng.create 12 in
  let n_vars = 180 in
  let clauses = random_3sat rng ~n_vars ~n_clauses:767 in
  let s = Solver.create () in
  ignore (Solver.new_vars s n_vars);
  List.iter (Solver.add_clause s) clauses;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "reduction ran" true (Solver.db_reductions s >= 1);
  Alcotest.(check bool) "model satisfies every clause" true
    (eval_clauses clauses (fun v -> Solver.value s v));
  Alcotest.(check bool) "reasons live" true (Solver.reasons_are_live s);
  (* The solver must stay usable incrementally after reductions: pin a
     variable each way and get coherent verdicts. *)
  let v = 1 + ((Rng.int rng n_vars) mod n_vars) in
  (match Solver.solve ~assumptions:[ v ] s with
  | Solver.Sat ->
    Alcotest.(check bool) "assumption respected" true (Solver.value s v)
  | Solver.Unsat -> ()
  | Solver.Unknown _ -> Alcotest.fail "unlimited solve returned Unknown");
  match Solver.solve ~assumptions:[ -v ] s with
  | Solver.Sat ->
    Alcotest.(check bool) "negated assumption respected" false (Solver.value s v)
  | Solver.Unsat -> ()
  | Solver.Unknown _ -> Alcotest.fail "unlimited solve returned Unknown"

(* ------------------------------------------------- search fingerprint *)

(* The exact search of the five solver-bench instances. Every
   decision, conflict, propagation, learnt clause and restart is a
   pure function of the clause order and the heuristics, so these
   counts change only when the search does: a speed-up that claims to
   keep the search must keep them, and a deliberate heuristic change
   re-pins them (and [bench/baseline.json]) with the reason stated. *)
let test_search_fingerprint () =
  let case label ~verdict ~decisions ~conflicts ~propagations ~learned ~restarts s =
    let got =
      match Solver.solve s with
      | Solver.Sat -> "sat"
      | Solver.Unsat -> "unsat"
      | Solver.Unknown _ -> "unknown"
    in
    Alcotest.(check string) (label ^ " verdict") verdict got;
    let st = Solver.stats s in
    Alcotest.(check (list (pair string int)))
      (label ^ " stats")
      [
        ("decisions", decisions); ("conflicts", conflicts); ("propagations", propagations);
        ("learned", learned); ("restarts", restarts);
      ]
      [
        ("decisions", st.decisions); ("conflicts", st.conflicts);
        ("propagations", st.propagations); ("learned", st.learned);
        ("restarts", st.restarts);
      ]
  in
  let three_sat seed ~n_vars ~n_clauses =
    let s = Solver.create () in
    ignore (Solver.new_vars s n_vars);
    List.iter (Solver.add_clause s) (random_3sat (Rng.create seed) ~n_vars ~n_clauses);
    s
  in
  case "3-sat seed 11" ~verdict:"sat" ~decisions:1517 ~conflicts:1240 ~propagations:39013
    ~learned:1240 ~restarts:7
    (three_sat 11 ~n_vars:150 ~n_clauses:615);
  case "3-sat seed 12" ~verdict:"sat" ~decisions:7654 ~conflicts:6177 ~propagations:213292
    ~learned:6177 ~restarts:29
    (three_sat 12 ~n_vars:180 ~n_clauses:767);
  case "3-sat seed 14" ~verdict:"unsat" ~decisions:528 ~conflicts:425 ~propagations:10810
    ~learned:418 ~restarts:3
    (three_sat 14 ~n_vars:130 ~n_clauses:650);
  case "pigeonhole 7 into 6" ~verdict:"unsat" ~decisions:1198 ~conflicts:991
    ~propagations:12416 ~learned:985 ~restarts:6 (pigeonhole 7 6);
  case "pigeonhole 8 into 7" ~verdict:"unsat" ~decisions:7811 ~conflicts:6414
    ~propagations:91508 ~learned:6405 ~restarts:30 (pigeonhole 8 7)

(* ------------------------------------------------- differential oracle *)

(* Random CNFs with mixed clause lengths (1-4): unit clauses drive the
   root-level simplification paths, longer clauses the watch
   machinery. *)
let random_cnf rng ~n_vars ~n_clauses =
  List.init n_clauses (fun _ ->
      let len = 1 + Rng.int rng 4 in
      List.init len (fun _ ->
          let v = 1 + Rng.int rng n_vars in
          if Rng.bool rng then v else -v))

let qcheck_differential_vs_reference =
  QCheck2.Test.make ~name:"rewritten solver matches reference oracle" ~count:500
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 4 12) (int_range 1 60))
    (fun (seed, n_vars, n_clauses) ->
      let rng = Rng.create seed in
      let clauses = random_cnf rng ~n_vars ~n_clauses in
      let s = Solver.create () in
      ignore (Solver.new_vars s n_vars);
      let r = Solver_ref.create () in
      ignore (Solver_ref.new_vars r n_vars);
      List.iter (Solver.add_clause s) clauses;
      List.iter (Solver_ref.add_clause r) clauses;
      match (Solver.solve s, Solver_ref.solve r) with
      | Solver.Sat, Solver_ref.Sat ->
        (* Verdicts agreeing is not enough: each solver's model must
           satisfy the formula by direct clause evaluation. *)
        eval_clauses clauses (fun v -> Solver.value s v)
        && eval_clauses clauses (fun v -> Solver_ref.value r v)
      | Solver.Unsat, Solver_ref.Unsat -> true
      | _ -> false)

let qcheck_differential_incremental_assumptions =
  QCheck2.Test.make ~name:"incremental + assumption paths match oracle"
    ~count:500
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 2 40))
    (fun (seed, n_clauses) ->
      let rng = Rng.create seed in
      let n_vars = 8 in
      let s = Solver.create () in
      ignore (Solver.new_vars s n_vars);
      let r = Solver_ref.create () in
      ignore (Solver_ref.new_vars r n_vars);
      let clauses = random_cnf rng ~n_vars ~n_clauses in
      let seen = ref [] in
      List.for_all
        (fun c ->
          Solver.add_clause s c;
          Solver_ref.add_clause r c;
          seen := c :: !seen;
          let assumptions =
            List.init (Rng.int rng 3) (fun _ ->
                let v = 1 + Rng.int rng n_vars in
                if Rng.bool rng then v else -v)
          in
          match (Solver.solve ~assumptions s, Solver_ref.solve ~assumptions r) with
          | Solver.Sat, Solver_ref.Sat ->
            eval_clauses !seen (fun v -> Solver.value s v)
            && List.for_all
                 (fun lit ->
                   if lit > 0 then Solver.value s lit
                   else not (Solver.value s (-lit)))
                 assumptions
          | Solver.Unsat, Solver_ref.Unsat ->
            (* Unsat under assumptions must not poison the instance:
               an assumption-free solve still agrees below. *)
            true
          | _ -> false)
        clauses
      && (match (Solver.solve s, Solver_ref.solve r) with
         | Solver.Sat, Solver_ref.Sat ->
           eval_clauses !seen (fun v -> Solver.value s v)
         | Solver.Unsat, Solver_ref.Unsat -> true
         | _ -> false))

let qcheck_diverse_configs_match_reference =
  (* Every portfolio member's heuristics must decide the same
     instances: diversification may only change the search path. *)
  QCheck2.Test.make ~name:"diverse portfolio configs match oracle" ~count:120
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 4 10) (int_range 1 50))
    (fun (seed, n_vars, n_clauses) ->
      let rng = Rng.create seed in
      let clauses = random_cnf rng ~n_vars ~n_clauses in
      let r = Solver_ref.create () in
      ignore (Solver_ref.new_vars r n_vars);
      List.iter (Solver_ref.add_clause r) clauses;
      let expected = Solver_ref.solve r = Solver_ref.Sat in
      List.for_all
        (fun member ->
          let s = Solver.create ~config:(Solver.diverse_config member) () in
          ignore (Solver.new_vars s n_vars);
          List.iter (Solver.add_clause s) clauses;
          match Solver.solve s with
          | Solver.Sat -> expected && eval_clauses clauses (fun v -> Solver.value s v)
          | Solver.Unsat -> not expected
          | Solver.Unknown _ -> false)
        [ 0; 1; 2; 3; 4 ])

(* The learnt hook is where the solver's clauses leave it (portfolio
   clause sharing), so every clause it hands out must be a well-formed
   DIMACS clause over allocated variables and implied by the formula
   alone: F /\ not C is unsatisfiable, as decided by the oracle. *)
let qcheck_learnt_hook_clauses_are_implied =
  QCheck2.Test.make ~name:"learnt-hook clauses are implied by the formula" ~count:40
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 16 30))
    (fun (seed, n_vars) ->
      let rng = Rng.create seed in
      let n_clauses = (n_vars * 43 / 10) + Rng.int rng 4 in
      let clauses = random_3sat rng ~n_vars ~n_clauses in
      let s = Solver.create () in
      ignore (Solver.new_vars s n_vars);
      List.iter (Solver.add_clause s) clauses;
      let learnt = ref [] in
      Solver.set_learnt_hook s
        (Some (fun ~lbd c -> learnt := (lbd, c) :: !learnt));
      ignore (Solver.solve s);
      List.for_all
        (fun (lbd, c) ->
          let n = Array.length c in
          n > 0 && lbd >= 1 && lbd <= n
          && Array.for_all (fun l -> l <> 0 && abs l <= n_vars) c
          &&
          let r = Solver_ref.create () in
          ignore (Solver_ref.new_vars r n_vars);
          List.iter (Solver_ref.add_clause r) clauses;
          Array.iter (fun l -> Solver_ref.add_clause r [ -l ]) c;
          Solver_ref.solve r = Solver_ref.Unsat)
        !learnt)

let qcheck_unknown_leaves_instance_reusable =
  (* A budgeted Unknown must not poison the instance: the same solver,
     solved again without a budget, still agrees with the oracle — the
     property the portfolio relies on when a cancelled helper's solver
     is reused for the next round. *)
  QCheck2.Test.make ~name:"Unknown leaves the instance reusable" ~count:150
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 10 50))
    (fun (seed, n_clauses) ->
      let rng = Rng.create seed in
      let n_vars = 8 in
      let clauses = random_cnf rng ~n_vars ~n_clauses in
      let s = Solver.create () in
      ignore (Solver.new_vars s n_vars);
      List.iter (Solver.add_clause s) clauses;
      (* Zero propagation budget: trips on the first search loop, so
         the first call is Unknown whenever the instance needs search. *)
      (match Solver.solve ~limit:(Limits.make ~max_propagations:0 ()) s with
      | Solver.Unknown _ | Solver.Sat | Solver.Unsat -> ());
      let flag = Limits.new_cancel () in
      Limits.cancel flag;
      (match Solver.solve ~limit:(Limits.make ~cancel:flag ()) s with
      | Solver.Unknown _ | Solver.Sat | Solver.Unsat -> ());
      let r = Solver_ref.create () in
      ignore (Solver_ref.new_vars r n_vars);
      List.iter (Solver_ref.add_clause r) clauses;
      match (Solver.solve s, Solver_ref.solve r) with
      | Solver.Sat, Solver_ref.Sat -> eval_clauses clauses (fun v -> Solver.value s v)
      | Solver.Unsat, Solver_ref.Unsat -> true
      | _ -> false)

(* ------------------------------------------------------------ tseitin *)

let test_tseitin_matches_simulation () =
  let circuit = Circuits.adder ~width:3 in
  let rng = Rng.create 31 in
  for _ = 1 to 50 do
    let inputs = Array.init 6 (fun _ -> Rng.bool rng) in
    let s = Solver.create () in
    let inst = Tseitin.encode s circuit in
    Tseitin.constrain_inputs s inst inputs;
    Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
    let expected = Netlist.eval circuit ~inputs ~keys:[||] in
    let got = Array.map (fun v -> Solver.value s v) inst.Tseitin.output_vars in
    Alcotest.(check (array bool)) "outputs agree" expected got
  done

let test_tseitin_output_constraint_inverts () =
  (* Constrain the output of an adder to a value and check the model's
     inputs actually produce it. *)
  let circuit = Circuits.adder ~width:3 in
  let s = Solver.create () in
  let inst = Tseitin.encode s circuit in
  let target = [| true; false; true |] in
  Tseitin.constrain_outputs s inst target;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let inputs = Array.map (fun v -> Solver.value s v) inst.Tseitin.input_vars in
  Alcotest.(check (array bool)) "witness checks" target
    (Netlist.eval circuit ~inputs ~keys:[||])

let test_tseitin_shared_variables () =
  (* Two copies sharing inputs must agree on outputs. *)
  let circuit = Circuits.multiplier ~width:2 in
  let s = Solver.create () in
  let a = Tseitin.encode s circuit in
  let b = Tseitin.encode s circuit ~input_vars:a.Tseitin.input_vars in
  (* force a difference: unsatisfiable *)
  let d = Solver.new_var s in
  let x = a.Tseitin.output_vars.(0) and y = b.Tseitin.output_vars.(0) in
  Solver.add_clause s [ -d; x; y ];
  Solver.add_clause s [ -d; -x; -y ];
  Solver.add_clause s [ d ];
  Alcotest.(check bool) "identical copies cannot differ" true (Solver.solve s = Solver.Unsat)

(* ------------------------------------------------------------- dimacs *)

module Dimacs = Rb_sat.Dimacs

let solve_dimacs (d : Dimacs.t) extra =
  let s = Solver.create () in
  ignore (Solver.new_vars s d.Dimacs.n_vars);
  List.iter (Solver.add_clause s) d.Dimacs.clauses;
  List.iter (Solver.add_clause s) extra;
  (s, Solver.solve s)

let test_dimacs_roundtrips_through_solver () =
  (* Pin inputs of the exported CNF and check outputs match simulation. *)
  let circuit = Circuits.adder ~width:3 in
  let d = Dimacs.of_netlist circuit in
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let inputs = Array.init 6 (fun _ -> Rng.bool rng) in
    let pins =
      Array.to_list
        (Array.mapi
           (fun i v -> [ (if inputs.(i) then v else -v) ])
           d.Dimacs.input_vars)
    in
    let s, result = solve_dimacs d pins in
    Alcotest.(check bool) "sat" true (result = Solver.Sat);
    let expected = Netlist.eval circuit ~inputs ~keys:[||] in
    Array.iteri
      (fun i v ->
        Alcotest.(check bool) "output bit" expected.(i) (Solver.value s v))
      d.Dimacs.output_vars
  done

let test_dimacs_miter_unsat_for_unlocked () =
  (* Two copies of an unkeyed circuit can never differ. *)
  let circuit = Circuits.multiplier ~width:2 in
  let d = Dimacs.miter circuit in
  let _, result = solve_dimacs d [] in
  Alcotest.(check bool) "unsat" true (result = Solver.Unsat)

let test_dimacs_miter_sat_for_locked () =
  let rng = Rng.create 6 in
  let base = Circuits.adder ~width:3 in
  let locked = Lock.xor_random ~rng ~key_bits:4 base in
  let d = Dimacs.miter locked.Lock.circuit in
  let _, result = solve_dimacs d [] in
  Alcotest.(check bool) "two keys can disagree" true (result = Solver.Sat)

let test_dimacs_text_format () =
  let d = Dimacs.of_netlist (Circuits.adder ~width:2) in
  let text = Dimacs.to_string ~comments:[ "hello" ] d in
  let lines = String.split_on_char '
' text in
  Alcotest.(check bool) "has comment" true (List.mem "c hello" lines);
  let header = Printf.sprintf "p cnf %d %d" d.Dimacs.n_vars (List.length d.Dimacs.clauses) in
  Alcotest.(check bool) "has header" true (List.mem header lines);
  (* every clause line ends in 0 *)
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> 'c' && line.[0] <> 'p' then
        Alcotest.(check bool) "terminated" true
          (String.length line >= 1 && line.[String.length line - 1] = '0'))
    lines

let test_dimacs_parse_roundtrip () =
  let d = Dimacs.of_netlist (Circuits.adder ~width:3) in
  match Dimacs.parse (Dimacs.to_string ~comments:[ "roundtrip" ] d) with
  | Ok (n_vars, clauses) ->
    Alcotest.(check int) "vars" d.Dimacs.n_vars n_vars;
    Alcotest.(check (list (list int))) "clauses" d.Dimacs.clauses clauses
  | Error e -> Alcotest.fail e

let test_dimacs_parse_errors () =
  let expect_error text =
    match Dimacs.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" text
  in
  expect_error "";
  expect_error "p cnf 2 1\n1 2\n";
  expect_error "p cnf 1 1\n2 0\n";
  expect_error "p cnf 2 2\n1 0\n";
  expect_error "p cnf 2 1\np cnf 2 1\n1 0\n1 0\n"

let test_dimacs_parse_multiline_clause () =
  match Dimacs.parse "c hi\np cnf 3 1\n1 2\n3 0\n" with
  | Ok (3, [ [ 1; 2; 3 ] ]) -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------- attack *)

let test_attack_breaks_rll () =
  let rng = Rng.create 42 in
  let base = Circuits.adder ~width:4 in
  let locked = Lock.xor_random ~rng ~key_bits:12 base in
  match Attack.attack_locked locked with
  | Attack.Broken { key; iterations } ->
    Alcotest.(check bool) "few iterations" true (iterations < 64);
    Alcotest.(check bool) "functionally correct key" true (Attack.key_is_correct locked key)
  | Attack.Budget_exceeded _ | Attack.Solver_limit _ ->
    Alcotest.fail "RLL should fall quickly"

let test_attack_breaks_point_function () =
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 33 ] base in
  match Attack.attack_locked locked with
  | Attack.Broken { key; iterations } ->
    Alcotest.(check bool) "key correct" true (Attack.key_is_correct locked key);
    (* Point functions force many DIPs relative to RLL on the same
       circuit: each DIP eliminates few keys. *)
    Alcotest.(check bool) "needs multiple iterations" true (iterations >= 3)
  | Attack.Budget_exceeded _ | Attack.Solver_limit _ ->
    Alcotest.fail "should converge on 6-input circuit"

let test_attack_respects_budget () =
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 12; 19 ] base in
  match Attack.attack_locked ~max_iterations:1 locked with
  | Attack.Budget_exceeded { iterations } -> Alcotest.(check int) "stopped at 1" 1 iterations
  | Attack.Broken _ | Attack.Solver_limit _ ->
    Alcotest.fail "cannot converge in one iteration"

let test_attack_breaks_permnet () =
  let rng = Rng.create 17 in
  let base = Circuits.adder ~width:3 in
  let locked = Lock.permutation_network ~rng ~layers:4 base in
  match Attack.attack_locked locked with
  | Attack.Broken { key; _ } ->
    Alcotest.(check bool) "key correct" true (Attack.key_is_correct locked key)
  | Attack.Budget_exceeded _ | Attack.Solver_limit _ ->
    Alcotest.fail "small permnet should fall"

let test_point_function_harder_than_rll () =
  (* The locked-input count / SAT-resilience trade-off, measured: RLL
     corrupts many inputs and falls fast; a point function corrupts two
     and needs more DIPs. *)
  let base = Circuits.adder ~width:3 in
  let rng = Rng.create 23 in
  let rll = Lock.xor_random ~rng ~key_bits:6 base in
  let pf = Lock.point_function ~minterms:[ 44 ] base in
  let iters locked =
    match Attack.attack_locked locked with
    | Attack.Broken { iterations; _ }
    | Attack.Budget_exceeded { iterations }
    | Attack.Solver_limit { iterations; _ } ->
      iterations
  in
  Alcotest.(check bool) "pf needs at least as many DIPs" true (iters pf >= iters rll)

let test_approximate_attack_on_point_function () =
  (* A point function hides 1 minterm in 2^8: the approximate attacker
     stops early with a key that is almost always right. *)
  let base = Circuits.adder ~width:4 in
  let locked = Lock.point_function ~minterms:[ 0x42 ] base in
  let outcome = Attack.approximate ~dip_budget:10 locked in
  Alcotest.(check bool) "low residual error" true
    (outcome.Attack.estimated_error_rate < 0.05);
  Alcotest.(check bool) "bounded work" true (outcome.Attack.dip_iterations <= 10)

let test_approximate_attack_converges_on_rll () =
  let rng = Rng.create 77 in
  let base = Circuits.adder ~width:3 in
  let locked = Lock.xor_random ~rng ~key_bits:6 base in
  let outcome = Attack.approximate ~dip_budget:50 locked in
  Alcotest.(check bool) "converged exactly" true outcome.Attack.converged;
  Alcotest.(check bool) "recovered key correct" true
    (Attack.key_is_correct locked outcome.Attack.key)

let test_approximate_attack_reports_non_convergence () =
  (* One DIP cannot separate a two-minterm point function; the outcome
     must say so rather than dress the partial key up as exact. *)
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 12; 19 ] base in
  let outcome = Attack.approximate ~dip_budget:1 locked in
  Alcotest.(check bool) "not converged" false outcome.Attack.converged;
  Alcotest.(check int) "spent exactly the budget" 1 outcome.Attack.dip_iterations;
  Alcotest.(check bool) "still returns a usable estimate" true
    (outcome.Attack.estimated_error_rate >= 0.0
    && outcome.Attack.estimated_error_rate <= 1.0);
  Alcotest.(check int) "key has the right width"
    (Array.length locked.Lock.correct_key)
    (Array.length outcome.Attack.key)

(* ------------------------------------------------------ key checks *)

(* A lock of one of the four schemes on a [width]-bit adder, with its
   size drawn from [rng]. *)
let random_lock rng ~scheme ~width =
  let base = Circuits.adder ~width in
  match scheme with
  | 0 -> Lock.xor_random ~rng ~key_bits:(1 + Rng.int rng (min 32 (Lock.max_xor_key_bits base))) base
  | 1 ->
    let space = 1 lsl (2 * width) in
    Lock.point_function ~minterms:(List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng space)) base
  | 2 -> Lock.anti_sat ~rng base
  | _ -> Lock.permutation_network ~rng ~layers:(1 + Rng.int rng 4) base

(* The lane sweep against the scalar one, on the correct key, a
   one-bit flip and a random key; the error rate is the share of the
   reference's minterm list. Widths 7-8 (2^14-2^16 minterms) are drawn
   rarely: the scalar reference is slow there. *)
let qcheck_key_checks_match_reference =
  QCheck2.Test.make ~name:"lane key checks = scalar sweep" ~count:40
    QCheck2.Gen.(
      triple (int_range 0 3) (frequency [ (12, int_range 1 6); (2, pure 7); (1, pure 8) ]) int)
    (fun (scheme, width, seed) ->
      let rng = Rng.create seed in
      let locked = random_lock rng ~scheme ~width in
      let n_keys = Array.length locked.Lock.correct_key in
      let flipped = Array.copy locked.Lock.correct_key in
      let bit = Rng.int rng n_keys in
      flipped.(bit) <- not flipped.(bit);
      let random = Array.init n_keys (fun _ -> Rng.bool rng) in
      List.for_all
        (fun key ->
          let expected = Sweep_ref.wrong_key_locked_minterms locked ~key in
          Lock.wrong_key_locked_minterms locked ~key = expected
          && Lock.first_wrong_minterm locked ~key = List.nth_opt expected 0
          && Lock.error_rate locked ~key
             = float_of_int (List.length expected)
               /. float_of_int (1 lsl Netlist.n_inputs locked.Lock.circuit)
          && Attack.key_is_correct locked key = Sweep_ref.key_is_correct locked key)
        [ locked.Lock.correct_key; flipped; random ])

let test_key_checks_wide_keys () =
  (* 11 protected minterms of a 3-bit adder need 66 key bits, more than
     one OCaml int holds; the sweep takes the key as bools. *)
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:(List.init 11 (fun i -> 5 * i)) base in
  Alcotest.(check int) "key width" 66 (Array.length locked.Lock.correct_key);
  Alcotest.(check bool) "correct key" true (Attack.key_is_correct locked locked.Lock.correct_key);
  let wrong = Array.copy locked.Lock.correct_key in
  wrong.(65) <- not wrong.(65);
  Alcotest.(check bool) "flipped top bit" false (Attack.key_is_correct locked wrong);
  Alcotest.(check (list int)) "minterm list"
    (Sweep_ref.wrong_key_locked_minterms locked ~key:wrong)
    (Lock.wrong_key_locked_minterms locked ~key:wrong)

let test_approximate_estimate_matches_scalar () =
  (* The estimate evaluates 32 samples per word but draws them in the
     scalar order; a partial last batch (2000 = 62 * 32 + 16) must
     count only its own lanes. *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let base = Circuits.adder ~width:4 in
      List.iter
        (fun locked ->
          let outcome = Attack.approximate ~dip_budget:3 ~seed locked in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "seed %d, %s" seed locked.Lock.description)
            (Sweep_ref.estimated_error_rate locked ~key:outcome.Attack.key ~seed
               ~skip:outcome.Attack.random_queries ~samples:2000)
            outcome.Attack.estimated_error_rate)
        [
          Lock.xor_random ~rng ~key_bits:8 base;
          Lock.point_function ~minterms:[ Rng.int rng 256; Rng.int rng 256 ] base;
          Lock.permutation_network ~rng ~layers:3 base;
        ])
    [ 97; 5; 2021 ]

let test_attack_solver_limit () =
  Faults.with_config None @@ fun () ->
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 12; 19 ] base in
  (* A zero-conflict budget trips on the very first miter solve. *)
  (match Attack.attack_locked ~limit:(Limits.conflicts 0) locked with
  | Attack.Solver_limit { iterations; reason } ->
    Alcotest.(check int) "no DIP completed" 0 iterations;
    Alcotest.(check string) "reason" "conflicts" (Limits.reason_label reason)
  | Attack.Broken _ | Attack.Budget_exceeded _ ->
    Alcotest.fail "zero budget cannot complete a miter solve");
  (* A generous budget leaves the attack's behaviour unchanged. *)
  match Attack.attack_locked ~limit:(Limits.conflicts 10_000_000) locked with
  | Attack.Broken { key; _ } ->
    Alcotest.(check bool) "key correct under generous budget" true
      (Attack.key_is_correct locked key)
  | Attack.Budget_exceeded _ | Attack.Solver_limit _ ->
    Alcotest.fail "generous budget should not interfere"

let test_approximate_attack_solver_limit () =
  Faults.with_config None @@ fun () ->
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 12; 19 ] base in
  let outcome = Attack.approximate ~limit:(Limits.conflicts 0) locked in
  Alcotest.(check bool) "budgeted-out approximate never claims exactness" false
    outcome.Attack.converged

(* The deterministic-result contract: one attack observed (DIP sequence
   via on_dip + final outcome) at several parallelism settings must be
   indistinguishable. *)
let observe_attack ?pool ?portfolio ?limit locked =
  let dips = ref [] in
  let outcome =
    Attack.attack_locked ?pool ?portfolio ?limit
      ~on_dip:(fun d -> dips := Array.to_list d :: !dips)
      locked
  in
  (outcome, List.rev !dips)

let test_attack_portfolio_deterministic () =
  let base = Circuits.adder ~width:3 in
  let cases =
    [
      Lock.point_function ~minterms:[ 12; 19 ] base;
      Lock.xor_random ~rng:(Rng.create 42) ~key_bits:6 base;
      Lock.permutation_network ~rng:(Rng.create 17) ~layers:3 base;
    ]
  in
  Rb_util.Pool.with_pool ~jobs:3 (fun pool ->
      List.iteri
        (fun i locked ->
          let reference = observe_attack locked in
          (* Racing on the pool, no pool (clamped to one member), and a
             portfolio larger than the pool (clamped to its 3 workers):
             all identical. *)
          List.iteri
            (fun j observed ->
              Alcotest.(check bool)
                (Printf.sprintf "case %d variant %d matches portfolio 1" i j)
                true (observed = reference))
            [
              observe_attack ~portfolio:3 ~pool locked;
              observe_attack ~portfolio:3 locked;
              observe_attack ~portfolio:5 ~pool locked;
            ])
        cases)

let test_attack_portfolio_breaks_locks () =
  (* A racing portfolio still recovers a functionally correct key, and
     repeats its own DIP sequence run over run (cancelled helper
     solvers are rebuilt per attack, so no state leaks between runs). *)
  Rb_util.Pool.with_pool ~jobs:4 (fun pool ->
      let base = Circuits.adder ~width:4 in
      let locked = Lock.point_function ~minterms:[ 0x42; 0x17 ] base in
      let first = observe_attack ~portfolio:4 ~pool locked in
      let again = observe_attack ~portfolio:4 ~pool locked in
      Alcotest.(check bool) "repeatable" true (first = again);
      match fst first with
      | Attack.Broken { key; _ } ->
        Alcotest.(check bool) "key correct" true (Attack.key_is_correct locked key)
      | Attack.Budget_exceeded _ | Attack.Solver_limit _ ->
        Alcotest.fail "portfolio attack should converge")

let test_attack_portfolio_rejects_bad_size () =
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 3 ] base in
  Alcotest.check_raises "portfolio 0"
    (Invalid_argument "Attack.new_miter: portfolio must be >= 1") (fun () ->
      ignore (Attack.attack_locked ~portfolio:0 locked))

let test_attack_budgeted_portfolio_degrades () =
  Faults.with_config None @@ fun () ->
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 12; 19 ] base in
  Rb_util.Pool.with_pool ~jobs:3 (fun pool ->
      (* A zero budget trips member 0's first round even with helpers
         racing; the attack reports the limit instead of wedging. *)
      (match Attack.attack_locked ~portfolio:3 ~pool ~limit:(Limits.conflicts 0) locked with
      | Attack.Solver_limit { iterations; _ } ->
        Alcotest.(check int) "no DIP completed" 0 iterations
      | Attack.Broken _ | Attack.Budget_exceeded _ ->
        Alcotest.fail "zero budget cannot complete a miter solve");
      (* A generous budget changes nothing about the result. *)
      match Attack.attack_locked ~portfolio:3 ~pool ~limit:(Limits.conflicts 10_000_000) locked with
      | Attack.Broken { key; _ } ->
        Alcotest.(check bool) "key correct" true (Attack.key_is_correct locked key)
      | Attack.Budget_exceeded _ | Attack.Solver_limit _ ->
        Alcotest.fail "generous budget should not interfere")

let test_attack_budgeted_portfolio_deterministic () =
  (* The stop point of a work-budgeted attack must be a pure function
     of the constraint set, never of helper racing: under a conflict
     budget the budget-tracking solve runs on member 0 alone, so the
     outcome (including which Solver_limit round trips and the DIP
     prefix completed) is byte-identical at every portfolio size, pool
     or no pool. *)
  Faults.with_config None @@ fun () ->
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 12; 19 ] base in
  let limited = ref 0 and finished = ref 0 in
  Rb_util.Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun budget ->
          let limit = Limits.conflicts budget in
          let reference = observe_attack ~limit locked in
          (match fst reference with
          | Attack.Solver_limit _ -> incr limited
          | Attack.Broken _ -> incr finished
          | Attack.Budget_exceeded _ -> ());
          List.iteri
            (fun j observed ->
              Alcotest.(check bool)
                (Printf.sprintf "budget %d variant %d matches portfolio 1" budget j)
                true (observed = reference))
            [
              observe_attack ~portfolio:3 ~pool ~limit locked;
              observe_attack ~portfolio:3 ~limit locked;
              observe_attack ~portfolio:5 ~pool ~limit locked;
            ])
        [ 1; 2; 5; 10; 20; 50; 100; 1_000; 100_000 ]);
  (* The sweep must exercise both regimes or it proves nothing. *)
  Alcotest.(check bool) "some budget trips mid-attack" true (!limited > 0);
  Alcotest.(check bool) "some budget completes" true (!finished > 0)

let test_constrain_observation_semantics () =
  (* constrain_observation must mean exactly circuit(dip, key) = outputs:
     for every full key assignment, the constrained instance is
     satisfiable iff simulation under that key reproduces the
     observation. Exhaustive over the key space. *)
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 33 ] base in
  let circuit = locked.Lock.circuit in
  let n_keys = Netlist.n_keys circuit in
  let rng = Rng.create 91 in
  for _ = 1 to 10 do
    let dip = Array.init (Netlist.n_inputs circuit) (fun _ -> Rng.bool rng) in
    let response = Netlist.eval circuit ~inputs:dip ~keys:locked.Lock.correct_key in
    let s = Solver.create () in
    let key_vars = Array.init n_keys (fun _ -> Solver.new_var s) in
    Tseitin.constrain_observation s circuit ~key_vars ~inputs:dip ~outputs:response;
    for k = 0 to (1 lsl n_keys) - 1 do
      let keys = Array.init n_keys (fun i -> k land (1 lsl i) <> 0) in
      let assumptions =
        Array.to_list
          (Array.mapi (fun i v -> if keys.(i) then v else -v) key_vars)
      in
      let consistent = Netlist.eval circuit ~inputs:dip ~keys = response in
      Alcotest.(check bool)
        (Printf.sprintf "key %d consistency" k)
        consistent
        (Solver.solve ~assumptions s = Solver.Sat)
    done
  done

let () =
  Alcotest.run "rb_sat"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat_when_enough_holes;
          Alcotest.test_case "incremental" `Quick test_incremental_solving;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "unknown var" `Quick test_unknown_variable_rejected;
          Alcotest.test_case "stats" `Quick test_stats_progress;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "conflict budget yields Unknown" `Quick
            test_solve_conflict_budget_unknown;
          Alcotest.test_case "propagation budget yields Unknown" `Quick
            test_solve_propagation_budget_unknown;
          Alcotest.test_case "budget is per call" `Quick
            test_solve_budget_is_per_call;
          Alcotest.test_case "cancel flag stops the solve" `Quick
            test_solve_cancelled;
          Alcotest.test_case "generous budget decides" `Quick
            test_solve_generous_budget_decides;
          Alcotest.test_case "sat/budget fault site" `Quick
            test_solve_budget_fault_site;
        ] );
      ( "order-heap",
        [
          Alcotest.test_case "pop follows activity" `Quick
            test_heap_pop_follows_activity;
          Alcotest.test_case "reinsert + membership" `Quick
            test_heap_reinsert_and_membership;
          Alcotest.test_case "set_activity decrease" `Quick
            test_heap_set_activity_decrease;
          Alcotest.test_case "rescale preserves order" `Quick
            test_heap_rescale_preserves_order;
          Alcotest.test_case "random ops keep invariant" `Quick
            test_heap_random_ops_keep_invariant;
        ] );
      ( "clause-db",
        [
          Alcotest.test_case "reduction on pigeonhole" `Quick
            test_db_reduction_on_pigeonhole;
          Alcotest.test_case "usable after reduction" `Quick
            test_db_reduction_keeps_solver_usable;
        ] );
      ( "search",
        [ Alcotest.test_case "solver-bench fingerprint" `Quick test_search_fingerprint ] );
      ( "tseitin",
        [
          Alcotest.test_case "matches simulation" `Quick test_tseitin_matches_simulation;
          Alcotest.test_case "output constraints" `Quick test_tseitin_output_constraint_inverts;
          Alcotest.test_case "shared variables" `Quick test_tseitin_shared_variables;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrips_through_solver;
          Alcotest.test_case "unlocked miter unsat" `Quick test_dimacs_miter_unsat_for_unlocked;
          Alcotest.test_case "locked miter sat" `Quick test_dimacs_miter_sat_for_locked;
          Alcotest.test_case "text format" `Quick test_dimacs_text_format;
          Alcotest.test_case "parse roundtrip" `Quick test_dimacs_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_dimacs_parse_errors;
          Alcotest.test_case "multiline clause" `Quick test_dimacs_parse_multiline_clause;
        ] );
      ( "attack",
        [
          Alcotest.test_case "breaks RLL" `Quick test_attack_breaks_rll;
          Alcotest.test_case "breaks point function" `Quick test_attack_breaks_point_function;
          Alcotest.test_case "budget" `Quick test_attack_respects_budget;
          Alcotest.test_case "breaks permnet" `Quick test_attack_breaks_permnet;
          Alcotest.test_case "trade-off measured" `Quick test_point_function_harder_than_rll;
          Alcotest.test_case "approximate on pf" `Quick test_approximate_attack_on_point_function;
          Alcotest.test_case "approximate on rll" `Quick test_approximate_attack_converges_on_rll;
          Alcotest.test_case "approximate reports non-convergence" `Quick
            test_approximate_attack_reports_non_convergence;
          Alcotest.test_case "solver limit degrades gracefully" `Quick
            test_attack_solver_limit;
          Alcotest.test_case "approximate under solver limit" `Quick
            test_approximate_attack_solver_limit;
          Alcotest.test_case "key checks take keys wider than 62 bits" `Quick
            test_key_checks_wide_keys;
          Alcotest.test_case "approximate estimate = scalar" `Quick
            test_approximate_estimate_matches_scalar;
          QCheck_alcotest.to_alcotest qcheck_key_checks_match_reference;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "deterministic across settings" `Quick
            test_attack_portfolio_deterministic;
          Alcotest.test_case "racing run breaks locks repeatably" `Quick
            test_attack_portfolio_breaks_locks;
          Alcotest.test_case "rejects portfolio < 1" `Quick
            test_attack_portfolio_rejects_bad_size;
          Alcotest.test_case "budgeted portfolio degrades gracefully" `Quick
            test_attack_budgeted_portfolio_degrades;
          Alcotest.test_case "budgeted portfolio deterministic" `Quick
            test_attack_budgeted_portfolio_deterministic;
          Alcotest.test_case "observation constraint semantics" `Quick
            test_constrain_observation_semantics;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_solver_vs_brute_force; qcheck_incremental_matches_batch;
            qcheck_differential_vs_reference;
            qcheck_differential_incremental_assumptions;
            qcheck_diverse_configs_match_reference;
            qcheck_unknown_leaves_instance_reusable;
            qcheck_learnt_hook_clauses_are_implied;
          ] );
    ]
