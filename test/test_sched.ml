module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Scheduler = Rb_sched.Scheduler
module Testgen = Rb_testsupport.Testgen

let limits adders multipliers = { Scheduler.adders; multipliers }

let test_asap_respects_deps () =
  let dfg = Testgen.random_dfg 1 in
  let asap = Scheduler.asap dfg in
  for id = 0 to Dfg.op_count dfg - 1 do
    List.iter
      (fun p ->
        Alcotest.(check bool) "pred earlier" true (asap.(p) < asap.(id)))
      (Dfg.predecessors dfg id)
  done

let test_asap_critical_path () =
  let dfg = Testgen.random_dfg 2 in
  let asap = Scheduler.asap dfg in
  let span = 1 + Array.fold_left max 0 asap in
  Alcotest.(check int) "span = critical path" (Dfg.critical_path_length dfg) span

let test_path_based_valid () =
  let dfg = Testgen.random_dfg 6 ~n_ops:40 in
  (* causal by construction: Schedule.make raises on a violation *)
  ignore (Scheduler.path_based dfg : Schedule.t)

let test_path_based_respects_limits () =
  let dfg = Testgen.random_dfg 7 ~n_ops:40 in
  let lims = limits 2 1 in
  let schedule = Scheduler.path_based ~limits:lims dfg in
  Alcotest.(check bool) "add concurrency" true (Schedule.max_concurrency schedule Dfg.Add <= 2);
  Alcotest.(check bool) "mul concurrency" true (Schedule.max_concurrency schedule Dfg.Mul <= 1)

let test_path_based_single_fu_serializes () =
  let dfg = Testgen.random_dfg 8 ~n_ops:15 in
  let schedule = Scheduler.path_based ~limits:(limits 1 1) dfg in
  (* one FU per kind: cycle count >= ops of the busier kind *)
  let adds = List.length (Dfg.ops_of_kind dfg Dfg.Add) in
  let muls = List.length (Dfg.ops_of_kind dfg Dfg.Mul) in
  Alcotest.(check bool) "serialized" true (Schedule.n_cycles schedule >= max adds muls)

let test_force_directed_valid () =
  let dfg = Testgen.random_dfg 40 ~n_ops:25 in
  let schedule = Rb_sched.Force_directed.schedule dfg in
  Alcotest.(check int) "meets latency" (Dfg.critical_path_length dfg)
    (Schedule.n_cycles schedule)

let test_force_directed_latency_slack () =
  let dfg = Testgen.random_dfg 41 ~n_ops:25 in
  let latency = Dfg.critical_path_length dfg + 3 in
  let schedule = Rb_sched.Force_directed.schedule ~latency dfg in
  Alcotest.(check bool) "within latency" true (Schedule.n_cycles schedule <= latency)

let test_force_directed_balances_usage () =
  (* With slack, FDS must not exceed the zero-slack peak; usually it
     lowers it. *)
  let dfg = Testgen.random_dfg 42 ~n_ops:30 in
  let tight = Rb_sched.Force_directed.schedule dfg in
  let latency = Dfg.critical_path_length dfg + 4 in
  let relaxed = Rb_sched.Force_directed.schedule ~latency dfg in
  List.iter
    (fun kind ->
      Alcotest.(check bool) "slack never raises the peak" true
        (Schedule.max_concurrency relaxed kind <= Schedule.max_concurrency tight kind))
    [ Dfg.Add; Dfg.Mul ]

let test_force_directed_rejects_small_latency () =
  let dfg = Testgen.random_dfg 43 in
  match Rb_sched.Force_directed.schedule ~latency:(Dfg.critical_path_length dfg - 1) dfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "latency below critical path accepted"

let test_force_directed_deterministic () =
  let dfg = Testgen.random_dfg 44 ~n_ops:20 in
  let s1 = Rb_sched.Force_directed.schedule dfg in
  let s2 = Rb_sched.Force_directed.schedule dfg in
  for id = 0 to Dfg.op_count dfg - 1 do
    Alcotest.(check int) "same cycle" (Schedule.cycle_of s1 id) (Schedule.cycle_of s2 id)
  done

let test_schedule_make_validation () =
  let dfg = Testgen.fig2_dfg () in
  (match Schedule.make dfg ~cycle_of:[| 0; 0 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "length mismatch accepted");
  match Schedule.make dfg ~cycle_of:[| 0; 0; -1; 1; 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative cycle accepted"

let test_schedule_make_rejects_acausal () =
  let rejects name dfg cycle_of =
    match Schedule.make dfg ~cycle_of with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: acausal schedule accepted" name
  in
  let dfg = Testgen.fig2_dfg () in
  (* OPC (id 2) depends on OPA (id 0): same cycle, and OPC first *)
  rejects "same cycle" dfg [| 0; 0; 0; 1; 1 |];
  rejects "consumer first" dfg [| 1; 0; 0; 1; 1 |];
  Alcotest.(check int) "causal schedule builds" 2
    (Schedule.n_cycles (Schedule.make dfg ~cycle_of:[| 0; 0; 1; 1; 1 |]))

let test_ops_in_cycle_partition () =
  let dfg = Testgen.random_dfg 9 ~n_ops:30 in
  let schedule = Scheduler.path_based dfg in
  let collected = ref [] in
  for c = 0 to Schedule.n_cycles schedule - 1 do
    collected :=
      !collected
      @ Schedule.ops_in_cycle schedule Dfg.Add c
      @ Schedule.ops_in_cycle schedule Dfg.Mul c
  done;
  Alcotest.(check (list int)) "every op exactly once"
    (List.init (Dfg.op_count dfg) Fun.id)
    (List.sort Int.compare !collected)

let test_fig2_schedule_shape () =
  let dfg = Testgen.fig2_dfg () in
  let schedule = Testgen.fig2_schedule dfg in
  Alcotest.(check int) "2 cycles" 2 (Schedule.n_cycles schedule);
  Alcotest.(check (list int)) "clock 1 ops" [ 0; 1 ] (Schedule.ops_in_cycle schedule Dfg.Add 0);
  Alcotest.(check (list int)) "clock 2 ops" [ 2; 3; 4 ] (Schedule.ops_in_cycle schedule Dfg.Add 1);
  Alcotest.(check int) "max concurrency" 3 (Schedule.max_concurrency schedule Dfg.Add)

let qcheck_path_based_always_valid =
  QCheck2.Test.make ~name:"path-based schedules are causal and bounded" ~count:60
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 3) (int_range 1 3))
    (fun (seed, adders, multipliers) ->
      let dfg = Testgen.random_dfg seed ~n_ops:(10 + (seed mod 25)) in
      let schedule = Scheduler.path_based ~limits:(limits adders multipliers) dfg in
      Schedule.max_concurrency schedule Dfg.Add <= adders
      && Schedule.max_concurrency schedule Dfg.Mul <= multipliers)

let qcheck_asap_is_lower_bound =
  QCheck2.Test.make ~name:"path-based never beats ASAP per op" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let dfg = Testgen.random_dfg seed in
      let asap = Scheduler.asap dfg in
      let schedule = Scheduler.path_based dfg in
      List.for_all
        (fun id -> Schedule.cycle_of schedule id >= asap.(id))
        (List.init (Dfg.op_count dfg) Fun.id))

(* The pre-index definitions of [N_t] and peak concurrency: filter
   every op of the kind on its cycle. *)
let ref_ops_in_cycle schedule kind cycle =
  Dfg.ops_of_kind (Schedule.dfg schedule) kind
  |> List.filter (fun id -> Schedule.cycle_of schedule id = cycle)

let ref_max_concurrency schedule kind =
  let best = ref 0 in
  for c = 0 to Schedule.n_cycles schedule - 1 do
    best := max !best (List.length (ref_ops_in_cycle schedule kind c))
  done;
  !best

let qcheck_index_matches_filter =
  QCheck2.Test.make ~name:"cycle index = filter definition" ~count:80
    QCheck2.Gen.(pair (int_range 0 10_000) bool)
    (fun (seed, force_directed) ->
      let dfg = Testgen.random_dfg seed ~n_ops:(5 + (seed mod 40)) in
      let schedule =
        if force_directed then
          Rb_sched.Force_directed.schedule ~latency:(Dfg.critical_path_length dfg + (seed mod 3)) dfg
        else Scheduler.path_based ~limits:(limits (1 + (seed mod 3)) (1 + (seed mod 2))) dfg
      in
      List.for_all
        (fun kind ->
          Schedule.max_concurrency schedule kind = ref_max_concurrency schedule kind
          && List.for_all
               (fun c -> Schedule.ops_in_cycle schedule kind c = ref_ops_in_cycle schedule kind c)
               (List.init (Schedule.n_cycles schedule + 2) (fun c -> c - 1)))
        [ Dfg.Add; Dfg.Mul ])

let () =
  Alcotest.run "rb_sched"
    [
      ( "asap/alap",
        [
          Alcotest.test_case "asap respects deps" `Quick test_asap_respects_deps;
          Alcotest.test_case "asap = critical path" `Quick test_asap_critical_path;
        ] );
      ( "path-based",
        [
          Alcotest.test_case "valid" `Quick test_path_based_valid;
          Alcotest.test_case "respects limits" `Quick test_path_based_respects_limits;
          Alcotest.test_case "single FU serializes" `Quick test_path_based_single_fu_serializes;
        ] );
      ( "force-directed",
        [
          Alcotest.test_case "valid" `Quick test_force_directed_valid;
          Alcotest.test_case "latency slack" `Quick test_force_directed_latency_slack;
          Alcotest.test_case "balances usage" `Quick test_force_directed_balances_usage;
          Alcotest.test_case "small latency" `Quick test_force_directed_rejects_small_latency;
          Alcotest.test_case "deterministic" `Quick test_force_directed_deterministic;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "make validation" `Quick test_schedule_make_validation;
          Alcotest.test_case "catches violations" `Quick test_schedule_make_rejects_acausal;
          Alcotest.test_case "ops partition" `Quick test_ops_in_cycle_partition;
          Alcotest.test_case "fig2 shape" `Quick test_fig2_schedule_shape;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_path_based_always_valid; qcheck_asap_is_lower_bound; qcheck_index_matches_filter ] );
    ]
