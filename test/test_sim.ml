module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Trace = Rb_sim.Trace
module Exec = Rb_sim.Exec
module Kmatrix = Rb_sim.Kmatrix
module Config = Rb_locking.Config
module Scheme = Rb_locking.Scheme
module Schedule = Rb_sched.Schedule
module Testgen = Rb_testsupport.Testgen
module B = Dfg.Builder

(* y = (a + b), z = y * c ; two ops, easy to trace by hand. *)
let tiny_dfg () =
  let b = B.create "tiny" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let c = B.input b "c" in
  let y = B.add ~label:"y" b a bb in
  let z = B.mul ~label:"z" b y c in
  B.output b z;
  B.finish b

let tiny_trace dfg =
  Trace.make dfg ~samples:[| [| 1; 2; 3 |]; [| 1; 2; 3 |]; [| 10; 20; 2 |] |]

(* -------------------------------------------------------------- trace *)

let test_trace_accessors () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check int) "value" 20 (Trace.input_value t ~sample:2 ~input:"b");
  Alcotest.(check int) "index" 2 (Trace.input_index t "c")

let test_trace_clamps () =
  let dfg = tiny_dfg () in
  let t = Trace.make dfg ~samples:[| [| 300; -1; 256 |] |] in
  Alcotest.(check int) "clamped 300" (300 land 255) (Trace.input_value t ~sample:0 ~input:"a");
  Alcotest.(check int) "clamped 256" 0 (Trace.input_value t ~sample:0 ~input:"c")

let test_trace_validation () =
  let dfg = tiny_dfg () in
  (match Trace.make dfg ~samples:[||] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty trace accepted");
  (match Trace.make dfg ~samples:[| [| 1 |] |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "narrow sample accepted");
  match Trace.input_value (tiny_trace dfg) ~sample:0 ~input:"nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown input accepted"

(* --------------------------------------------------------------- exec *)

let test_eval_clean_by_hand () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let e = Exec_ref.eval_clean t ~sample:0 in
  Alcotest.(check int) "y = 1+2" 3 e.(0).Exec_ref.result;
  Alcotest.(check int) "z = 3*3" 9 e.(1).Exec_ref.result;
  Alcotest.(check (pair int int)) "z operands" (3, 3) (e.(1).Exec_ref.a, e.(1).Exec_ref.b);
  let e2 = Exec_ref.eval_clean t ~sample:2 in
  Alcotest.(check int) "z = 30*2" 60 e2.(1).Exec_ref.result

let lock_z_config () =
  (* lock FU 1 on minterm (3,3) — z's operands in samples 0 and 1. *)
  Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (1, [ Minterm.pack 3 3 ]) ]

let test_eval_locked_injects () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  (* op0 (add) -> FU 0, op1 (mul) -> FU 1 *)
  let fu_of_op = [| 0; 1 |] in
  let results, injections = Exec_ref.eval_locked t ~sample:0 ~fu_of_op ~config:(lock_z_config ()) in
  Alcotest.(check int) "one injection" 1 injections;
  Alcotest.(check int) "corrupted output" (Config.corrupt 9) results.(1).Exec_ref.result;
  let results2, injections2 = Exec_ref.eval_locked t ~sample:2 ~fu_of_op ~config:(lock_z_config ()) in
  Alcotest.(check int) "no injection on other data" 0 injections2;
  Alcotest.(check int) "clean output" 60 results2.(1).Exec_ref.result

let test_corruption_propagates () =
  (* Lock the *add* FU: its corrupted result changes the multiply's
     operands downstream. *)
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let fu_of_op = [| 0; 1 |] in
  let config = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, [ Minterm.pack 1 2 ]) ] in
  let results, injections = Exec_ref.eval_locked t ~sample:0 ~fu_of_op ~config in
  Alcotest.(check int) "inject at add" 1 injections;
  let corrupted_y = Config.corrupt 3 in
  Alcotest.(check int) "downstream operand" corrupted_y results.(1).Exec_ref.a;
  Alcotest.(check int) "downstream result" ((corrupted_y * 3) land 255) results.(1).Exec_ref.result

let schedule_of dfg = Schedule.make dfg ~cycle_of:[| 0; 1 |]

let test_application_errors_report () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let schedule = schedule_of dfg in
  let report =
    Exec.application_errors schedule t ~fu_of_op:[| 0; 1 |] ~config:(lock_z_config ())
  in
  Alcotest.(check int) "samples" 3 report.Exec.samples;
  (* samples 0 and 1 hit minterm (3,3) on the locked mul *)
  Alcotest.(check int) "error events" 2 report.Exec.error_events;
  Alcotest.(check int) "clean hits agree" 2 report.Exec.clean_hits;
  Alcotest.(check int) "corrupted samples" 2 report.Exec.corrupted_samples;
  Alcotest.(check int) "corrupted output words" 2 report.Exec.corrupted_output_words;
  Alcotest.(check int) "corrupted cycles" 2 report.Exec.corrupted_cycles;
  Alcotest.(check int) "burst length" 1 report.Exec.max_consecutive_cycles

let test_application_errors_burst () =
  (* Lock both FUs so a sample injects in both cycles: burst = 2. *)
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let schedule = schedule_of dfg in
  let config =
    Config.make ~scheme:Scheme.Sfll_rem
      ~locks:[ (0, [ Minterm.pack 1 2 ]); (1, [ Minterm.pack (Config.corrupt 3) 3 ]) ]
  in
  let report = Exec.application_errors schedule t ~fu_of_op:[| 0; 1 |] ~config in
  Alcotest.(check int) "burst spans both cycles" 2 report.Exec.max_consecutive_cycles

let test_application_errors_validation () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let schedule = schedule_of dfg in
  match Exec.application_errors schedule t ~fu_of_op:[| 0 |] ~config:(lock_z_config ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "binding width mismatch accepted"

let test_eval_locked_multi_kind_config () =
  (* one locked adder FU and one locked multiplier FU in a single
     configuration: injections accumulate across kinds *)
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let config =
    Config.make ~scheme:Scheme.Sfll_rem
      ~locks:[ (0, [ Minterm.pack 1 2 ]); (1, [ Minterm.pack (Config.corrupt 3) 3 ]) ]
  in
  let _, injections = Exec_ref.eval_locked t ~sample:0 ~fu_of_op:[| 0; 1 |] ~config in
  Alcotest.(check int) "both kinds inject" 2 injections

let test_trace_sub () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let tail = Trace.sub t ~pos:1 ~len:2 in
  Alcotest.(check int) "length" 2 (Trace.length tail);
  Alcotest.(check int) "offset preserved" 10 (Trace.input_value tail ~sample:1 ~input:"a");
  (match Trace.sub t ~pos:2 ~len:5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "overrun accepted");
  match Trace.sub t ~pos:0 ~len:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty slice accepted"

(* ------------------------------------------------------------ kmatrix *)

let test_kmatrix_counts () =
  let dfg = tiny_dfg () in
  let t = tiny_trace dfg in
  let k = Kmatrix.build t in
  Alcotest.(check int) "K((1,2), add)" 2 (Kmatrix.count k (Minterm.pack 1 2) 0);
  Alcotest.(check int) "K((10,20), add)" 1 (Kmatrix.count k (Minterm.pack 10 20) 0);
  Alcotest.(check int) "K((3,3), mul)" 2 (Kmatrix.count k (Minterm.pack 3 3) 1);
  Alcotest.(check int) "absent" 0 (Kmatrix.count k (Minterm.pack 9 9) 1)

let test_kmatrix_counts_sum_to_samples () =
  let dfg = Testgen.random_dfg 11 in
  let t = Testgen.skewed_trace 12 dfg in
  let k = Kmatrix.build t in
  for op = 0 to Dfg.op_count dfg - 1 do
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Kmatrix.op_histogram k op) in
    Alcotest.(check int) "histogram covers trace" (Trace.length t) total
  done

let test_kmatrix_count_set_additive () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  let set = Minterm.Set.of_list [ Minterm.pack 1 2; Minterm.pack 10 20 ] in
  Alcotest.(check int) "set = sum of members" 3 (Kmatrix.count_set k set 0)

let test_kmatrix_top_minterms () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  (match Kmatrix.top_minterms k ~n:1 with
   | [ m ] ->
     (* (1,2) on add and (3,3) on mul both occur twice; tie broken by
        minterm order, so (1,2) wins. *)
     Alcotest.(check (pair int int)) "most common" (1, 2) (Minterm.unpack m)
   | _ -> Alcotest.fail "expected one");
  Alcotest.(check int) "n bounds result" 3 (List.length (Kmatrix.top_minterms k ~n:3))

let test_kmatrix_top_minterms_by_kind () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  match Kmatrix.top_minterms ~kind:Dfg.Mul k ~n:1 with
  | [ m ] -> Alcotest.(check (pair int int)) "mul head" (3, 3) (Minterm.unpack m)
  | _ -> Alcotest.fail "expected one"

let test_kmatrix_of_counts () =
  let dfg = Testgen.fig2_dfg () in
  let k = Testgen.fig2_kmatrix dfg in
  Alcotest.(check int) "x on OPA" 6 (Kmatrix.count k Testgen.minterm_x 0);
  Alcotest.(check int) "y on OPE" 8 (Kmatrix.count k Testgen.minterm_y 4);
  Alcotest.(check int) "x total" 23 (Kmatrix.total_occurrences k Testgen.minterm_x)

let test_kmatrix_of_counts_validation () =
  let dfg = tiny_dfg () in
  (match Kmatrix.of_counts dfg [ (7, [ (Minterm.pack 0 0, 1) ]) ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "bad op id accepted");
  match Kmatrix.of_counts dfg [ (0, [ (Minterm.pack 0 0, -2) ]) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative count accepted"

let test_kmatrix_head_mass () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  (* 6 operand pairs total over 3 samples x 2 ops; top-4 covers all *)
  Alcotest.(check (float 1e-9)) "all mass" 1.0 (Kmatrix.head_mass k ~n:4);
  Alcotest.(check bool) "head of 1 is partial" true
    (Kmatrix.head_mass k ~n:1 < 1.0 && Kmatrix.head_mass k ~n:1 > 0.0)

let test_kmatrix_op_concentration () =
  let dfg = tiny_dfg () in
  let k = Kmatrix.build (tiny_trace dfg) in
  (* (1,2) occurs only on the add op: fully concentrated *)
  Alcotest.(check (float 1e-9)) "single-op minterm" 1.0
    (Kmatrix.op_concentration k (Minterm.pack 1 2));
  Alcotest.(check (float 1e-9)) "absent minterm" 0.0
    (Kmatrix.op_concentration k (Minterm.pack 200 200))

let qcheck_clean_hits_match_kmatrix =
  (* Exec.clean_hits must equal the K-matrix sum over locked (fu, op)
     pairs — the consistency between simulator and Eqn. 2's table. *)
  QCheck2.Test.make ~name:"clean hits = K restricted to locked ops" ~count:40
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let dfg = Testgen.random_dfg seed ~n_ops:12 in
      let t = Testgen.skewed_trace (seed + 1) dfg in
      let schedule = Rb_sched.Scheduler.path_based dfg in
      let allocation = Rb_hls.Allocation.for_schedule schedule in
      let binding = Testgen.random_valid_binding (seed + 2) schedule allocation in
      let k = Kmatrix.build t in
      let locked_fu = 0 in
      let minterms = List.filteri (fun i _ -> i < 2) (Kmatrix.top_minterms k ~n:2) in
      match minterms with
      | [] -> true
      | _ ->
        let config = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (locked_fu, minterms) ] in
        let report =
          Exec.application_errors schedule t ~fu_of_op:(Rb_hls.Binding.fu_array binding)
            ~config
        in
        let expected =
          List.fold_left
            (fun acc op ->
              acc + Kmatrix.count_set k (Config.minterms_of config locked_fu) op)
            0
            (Rb_hls.Binding.ops_on_fu binding locked_fu)
        in
        report.Exec.clean_hits = expected)

(* ----------------------------------------------- evaluator oracle *)

(* The compiled evaluator against the per-sample interpreter of
   test/exec_ref.ml, on every sample of a random trace. *)
let qcheck_fast_matches_reference =
  QCheck2.Test.make ~name:"compiled evaluator = reference interpreter" ~count:60
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let dfg = Testgen.random_dfg seed ~n_ops:(1 + (seed mod 20)) in
      let t = Testgen.random_trace ~n:8 (seed + 1) dfg in
      let fast = Exec.Fast.make t in
      List.for_all
        (fun sample ->
          Exec.Fast.eval_clean fast ~sample;
          let expected = Exec_ref.eval_clean t ~sample in
          Array.map (fun (e : Exec_ref.op_eval) -> e.a) expected = Exec.Fast.a fast
          && Array.map (fun (e : Exec_ref.op_eval) -> e.b) expected = Exec.Fast.b fast
          && Array.map (fun (e : Exec_ref.op_eval) -> e.result) expected
             = Exec.Fast.results fast)
        (List.init (Trace.length t) Fun.id))

(* The fused error report against one golden and one locked reference
   evaluation per sample. One or two FUs lock the trace's most common
   minterms, so injections and their propagation are frequent. *)
let qcheck_error_report_matches_reference =
  QCheck2.Test.make ~name:"error report = per-sample reference" ~count:40
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let dfg = Testgen.random_dfg seed ~n_ops:(2 + (seed mod 14)) in
      let t = Testgen.skewed_trace ~n:24 (seed + 1) dfg in
      let schedule = Rb_sched.Scheduler.path_based dfg in
      let allocation = Rb_hls.Allocation.for_schedule schedule in
      let binding = Testgen.random_valid_binding (seed + 2) schedule allocation in
      let fu_of_op = Rb_hls.Binding.fu_array binding in
      let top = Kmatrix.top_minterms (Kmatrix.build t) ~n:3 in
      let fus = List.sort_uniq compare [ fu_of_op.(0); fu_of_op.(Dfg.op_count dfg - 1) ] in
      let config =
        Config.make ~scheme:Scheme.Sfll_rem
          ~locks:(List.mapi (fun i fu -> (fu, if i = 0 then top else List.tl top)) fus)
      in
      let report = Exec.application_errors schedule t ~fu_of_op ~config in
      let locked id (e : Exec_ref.op_eval) =
        Config.is_locked_input config ~fu:fu_of_op.(id) (Minterm.pack e.a e.b)
      in
      let ops = List.init (Dfg.op_count dfg) Fun.id in
      let events = ref 0 and hits = ref 0 and words = ref 0 and samples = ref 0 in
      let cycles = ref 0 and burst_max = ref 0 in
      for sample = 0 to Trace.length t - 1 do
        let golden = Exec_ref.eval_clean t ~sample in
        let faulty, injections = Exec_ref.eval_locked t ~sample ~fu_of_op ~config in
        events := !events + injections;
        Array.iteri (fun id e -> if locked id e then incr hits) golden;
        let wrong =
          List.length
            (List.filter (fun out -> golden.(out).result <> faulty.(out).result) (Dfg.outputs dfg))
        in
        words := !words + wrong;
        if wrong > 0 then incr samples;
        let burst = ref 0 in
        for c = 0 to Schedule.n_cycles schedule - 1 do
          let in_cycle id = Schedule.cycle_of schedule id = c in
          if List.exists (fun id -> in_cycle id && locked id faulty.(id)) ops then begin
            incr cycles;
            incr burst;
            burst_max := max !burst_max !burst
          end
          else burst := 0
        done
      done;
      report.Exec.samples = Trace.length t
      && report.Exec.error_events = !events
      && report.Exec.clean_hits = !hits
      && report.Exec.corrupted_output_words = !words
      && report.Exec.corrupted_samples = !samples
      && report.Exec.corrupted_cycles = !cycles
      && report.Exec.max_consecutive_cycles = !burst_max)

(* ----------------------------------------------- K-matrix oracle *)

(* Every query of the CSR K matrix against the original hash-table
   implementation kept in test/kmatrix_ref.ml. [seen] lists the
   minterms some operation saw; [unseen] is one no operation saw. *)
let kmatrix_agrees k r =
  let dfg = Kmatrix.dfg k in
  let ops = List.init (Dfg.op_count dfg) Fun.id in
  let seen =
    List.concat_map (fun op -> List.map fst (Kmatrix_ref.op_histogram r op)) ops
    |> List.sort_uniq Minterm.compare
  in
  let unseen =
    let rec first i =
      let m = Minterm.of_int i in
      if List.mem m seen then first (i + 1) else m
    in
    first 0
  in
  let kinds = [ None; Some Dfg.Add; Some Dfg.Mul ] in
  List.for_all
    (fun op ->
      Kmatrix.op_histogram k op = Kmatrix_ref.op_histogram r op
      && List.for_all
           (fun m -> Kmatrix.count k m op = Kmatrix_ref.count r m op)
           (unseen :: seen)
      && Kmatrix.count_set k (Minterm.Set.of_list (unseen :: seen)) op
         = Kmatrix_ref.count_set r (Minterm.Set.of_list (unseen :: seen)) op)
    ops
  && List.for_all
       (fun m ->
         Kmatrix.total_occurrences k m = Kmatrix_ref.total_occurrences r m
         && Kmatrix.op_concentration k m = Kmatrix_ref.op_concentration r m)
       (unseen :: seen)
  && Kmatrix.distinct_minterms k = Kmatrix_ref.distinct_minterms r
  && List.for_all
       (fun kind ->
         Kmatrix.all_minterms ?kind k = Kmatrix_ref.all_minterms ?kind r
         && List.for_all
              (fun n ->
                Kmatrix.top_minterms ?kind k ~n = Kmatrix_ref.top_minterms ?kind r ~n
                && Kmatrix.head_mass ?kind k ~n = Kmatrix_ref.head_mass ?kind r ~n)
              [ 0; 1; 3; 10; 1_000 ])
       kinds

(* A random DFG whose op 0 adds the two inputs [x] and [y]; a trace
   with x = s mod 256 and y = s / 256 gives op 0 a distinct minterm in
   every sample, the worst case for the build's probing. *)
let distinct_column_trace seed ~n_ops ~n =
  let rng = Rb_util.Rng.create seed in
  let b = B.create "distinct" in
  let x = B.input b "x" and y = B.input b "y" in
  let made = ref [ B.add b x y ] in
  for _ = 2 to n_ops do
    let operand () =
      match Rb_util.Rng.int rng 4 with
      | 0 -> x
      | 1 -> B.const (Rb_util.Rng.int rng 256)
      | _ -> List.nth !made (Rb_util.Rng.int rng (List.length !made))
    in
    let lhs = operand () and rhs = operand () in
    let op = if Rb_util.Rng.int rng 3 = 0 then B.mul b lhs rhs else B.add b lhs rhs in
    made := op :: !made
  done;
  let dfg = B.finish b in
  Trace.generate dfg ~n ~f:(fun s input -> if input = "x" then s land 255 else s lsr 8)

let qcheck_kmatrix_matches_reference =
  QCheck2.Test.make ~name:"K matrix = hash-table reference (traces)" ~count:60
    QCheck2.Gen.(triple (int_range 0 5_000) (oneofl [ 1; 2; 257 ]) (int_range 0 2))
    (fun (seed, n, shape) ->
      let t =
        match shape with
        | 0 -> Testgen.random_trace ~n seed (Testgen.random_dfg seed ~n_ops:(1 + (seed mod 25)))
        | 1 -> Testgen.skewed_trace ~n seed (Testgen.random_dfg seed ~n_ops:(1 + (seed mod 25)))
        | _ -> distinct_column_trace seed ~n_ops:(1 + (seed mod 12)) ~n
      in
      let r = Kmatrix_ref.build t in
      kmatrix_agrees (Kmatrix.build t) r
      && kmatrix_agrees (Kmatrix.of_operands (Rb_sim.Operands.build t)) r)

(* Explicit counts: minterms drawn from a small pool so entries repeat
   within and across an operation's lists, and zero counts are common. *)
let qcheck_kmatrix_of_counts_matches_reference =
  QCheck2.Test.make ~name:"K matrix = hash-table reference (of_counts)" ~count:200
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let rng = Rb_util.Rng.create seed in
      let dfg = Testgen.random_dfg seed ~n_ops:(1 + (seed mod 10)) in
      let n = Dfg.op_count dfg in
      let pool = Array.init 6 (fun _ -> Minterm.of_int (Rb_util.Rng.int rng 65536)) in
      let entries =
        List.init (Rb_util.Rng.int rng 12) (fun _ ->
            ( Rb_util.Rng.int rng n,
              List.init (Rb_util.Rng.int rng 5) (fun _ ->
                  (Rb_util.Rng.pick rng pool, Rb_util.Rng.int rng 3)) ))
      in
      kmatrix_agrees (Kmatrix.of_counts dfg entries) (Kmatrix_ref.of_counts dfg entries))

let test_kmatrix_of_counts_zero_entries () =
  let dfg = Testgen.fig2_dfg () in
  let k = Testgen.fig2_kmatrix dfg in
  (* OPD lists x and y with count 0: both stay entries. *)
  Alcotest.(check (list (pair int int))) "zero entries listed"
    [ (Minterm.to_int Testgen.minterm_x, 0); (Minterm.to_int Testgen.minterm_y, 0) ]
    (List.map (fun (m, c) -> (Minterm.to_int m, c)) (Kmatrix.op_histogram k 3));
  let dup =
    Kmatrix.of_counts dfg
      [ (0, [ (Testgen.minterm_x, 2); (Testgen.minterm_x, 0) ]); (0, [ (Testgen.minterm_x, 3) ]) ]
  in
  Alcotest.(check int) "duplicates summed" 5 (Kmatrix.count dup Testgen.minterm_x 0);
  Alcotest.(check int) "one entry" 1 (List.length (Kmatrix.op_histogram dup 0))

let () =
  Alcotest.run "rb_sim"
    [
      ( "trace",
        [
          Alcotest.test_case "accessors" `Quick test_trace_accessors;
          Alcotest.test_case "clamps" `Quick test_trace_clamps;
          Alcotest.test_case "validation" `Quick test_trace_validation;
        ] );
      ( "exec",
        [
          Alcotest.test_case "clean by hand" `Quick test_eval_clean_by_hand;
          Alcotest.test_case "locked injects" `Quick test_eval_locked_injects;
          Alcotest.test_case "corruption propagates" `Quick test_corruption_propagates;
          Alcotest.test_case "error report" `Quick test_application_errors_report;
          Alcotest.test_case "burst metric" `Quick test_application_errors_burst;
          Alcotest.test_case "validation" `Quick test_application_errors_validation;
          Alcotest.test_case "multi-kind config" `Quick test_eval_locked_multi_kind_config;
          Alcotest.test_case "trace sub" `Quick test_trace_sub;
        ] );
      ( "kmatrix",
        [
          Alcotest.test_case "counts" `Quick test_kmatrix_counts;
          Alcotest.test_case "sums to samples" `Quick test_kmatrix_counts_sum_to_samples;
          Alcotest.test_case "count_set additive" `Quick test_kmatrix_count_set_additive;
          Alcotest.test_case "top minterms" `Quick test_kmatrix_top_minterms;
          Alcotest.test_case "top by kind" `Quick test_kmatrix_top_minterms_by_kind;
          Alcotest.test_case "of_counts" `Quick test_kmatrix_of_counts;
          Alcotest.test_case "of_counts validation" `Quick test_kmatrix_of_counts_validation;
          Alcotest.test_case "head mass" `Quick test_kmatrix_head_mass;
          Alcotest.test_case "op concentration" `Quick test_kmatrix_op_concentration;
          Alcotest.test_case "of_counts zero entries" `Quick test_kmatrix_of_counts_zero_entries;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_clean_hits_match_kmatrix;
            qcheck_kmatrix_matches_reference;
            qcheck_kmatrix_of_counts_matches_reference;
            qcheck_fast_matches_reference;
            qcheck_error_report_matches_reference;
          ] );
    ]
