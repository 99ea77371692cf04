module Matcher = Rb_matching.Matcher

let assignment_weight weight assign =
  let total = ref 0.0 in
  Array.iteri (fun r c -> total := !total +. weight.(r).(c)) assign;
  !total

let negate m = Array.map (Array.map (fun w -> -.w)) m

let check_assignment name matrix expected_cols =
  let assign = Matcher.min_cost matrix in
  Alcotest.(check (array int)) name expected_cols assign

let test_identity () =
  check_assignment "diagonal optimum"
    [| [| 0.0; 9.0; 9.0 |]; [| 9.0; 0.0; 9.0 |]; [| 9.0; 9.0; 0.0 |] |]
    [| 0; 1; 2 |]

let test_antidiagonal () =
  check_assignment "anti-diagonal optimum"
    [| [| 9.0; 9.0; 0.0 |]; [| 9.0; 0.0; 9.0 |]; [| 0.0; 9.0; 9.0 |] |]
    [| 2; 1; 0 |]

let test_classic_3x3 () =
  (* Classic example: optimal cost 5 via (0,1) (1,0) (2,2). *)
  let m = [| [| 4.0; 1.0; 3.0 |]; [| 2.0; 0.0; 5.0 |]; [| 3.0; 2.0; 2.0 |] |] in
  let assign = Matcher.min_cost m in
  Alcotest.(check (float 1e-9)) "cost 5" 5.0 (assignment_weight m assign)

let test_rectangular () =
  let m = [| [| 10.0; 1.0; 10.0; 10.0 |]; [| 10.0; 10.0; 10.0; 2.0 |] |] in
  let assign = Matcher.min_cost m in
  Alcotest.(check (array int)) "uses cheap columns" [| 1; 3 |] assign

let test_max_weight () =
  let m = [| [| 1.0; 5.0 |]; [| 6.0; 2.0 |] |] in
  let assign = Matcher.max_weight m in
  Alcotest.(check (array int)) "max picks 5+6" [| 1; 0 |] assign;
  Alcotest.(check (float 1e-9)) "weight" 11.0 (assignment_weight m assign)

let test_negative_weights () =
  let m = [| [| -5.0; -1.0 |]; [| -2.0; -8.0 |] |] in
  let assign = Matcher.max_weight m in
  Alcotest.(check (float 1e-9)) "best of a bad lot" (-3.0) (assignment_weight m assign)

let test_single_cell () =
  Alcotest.(check (array int)) "1x1" [| 0 |] (Matcher.min_cost [| [| 7.0 |] |])

let test_all_equal_weights () =
  (* any perfect matching is optimal; result must still be a valid
     injective assignment *)
  let m = Array.make_matrix 4 6 3.0 in
  let assign = Matcher.min_cost m in
  Alcotest.(check (float 1e-9)) "cost 12" 12.0 (assignment_weight m assign);
  Alcotest.(check int) "distinct columns" 4
    (List.length (List.sort_uniq Int.compare (Array.to_list assign)))

let test_large_local_optimality () =
  (* At a size brute force cannot check, certify what any maximum must
     satisfy: no exchange of two rows' columns and no move of a row to
     an unused column raises the total. Integer weights keep the sums
     exact. Spare columns make the move check non-vacuous. *)
  let rng = Rb_util.Rng.create 2024 in
  let rows = 40 and cols = 48 in
  let m =
    Array.init rows (fun _ -> Array.init cols (fun _ -> float_of_int (Rb_util.Rng.int rng 1000)))
  in
  let assign = Matcher.max_weight m in
  let used = Array.make cols false in
  Array.iter (fun c -> used.(c) <- true) assign;
  for r1 = 0 to rows - 1 do
    let c1 = assign.(r1) in
    for r2 = r1 + 1 to rows - 1 do
      let c2 = assign.(r2) in
      if m.(r1).(c2) +. m.(r2).(c1) > m.(r1).(c1) +. m.(r2).(c2) then
        Alcotest.failf "exchanging rows %d and %d gains" r1 r2
    done;
    for c = 0 to cols - 1 do
      if (not used.(c)) && m.(r1).(c) > m.(r1).(c1) then
        Alcotest.failf "moving row %d to free column %d gains" r1 c
    done
  done

let test_empty_is_empty () =
  (* The 0-row matrix is a legal (empty) assignment problem: binders
     meet it on cycles with no operations of a kind. *)
  Alcotest.(check (array int)) "min" [||] (Matcher.min_cost [||]);
  Alcotest.(check (array int)) "max" [||] (Matcher.max_weight [||])

let test_validation_errors () =
  let invalid name m =
    match Matcher.min_cost m with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  invalid "empty row" [| [||] |];
  invalid "ragged" [| [| 1.0; 2.0 |]; [| 1.0 |] |];
  invalid "too tall" [| [| 1.0 |]; [| 2.0 |] |];
  invalid "nan weight" [| [| 1.0; nan |] |];
  invalid "inf weight" [| [| infinity; 2.0 |] |];
  invalid "neg inf weight" [| [| 1.0; neg_infinity |] |];
  match Matcher.max_weight [| [| nan; 1.0 |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max nan: expected Invalid_argument"

(* {1 Properties} *)

let brute_force_min matrix =
  let rows = Array.length matrix and cols = if matrix = [||] then 0 else Array.length matrix.(0) in
  let best = ref infinity in
  let used = Array.make (max cols 1) false in
  let rec go row acc =
    if row = rows then (if acc < !best then best := acc)
    else
      for c = 0 to cols - 1 do
        if not used.(c) then begin
          used.(c) <- true;
          go (row + 1) (acc +. matrix.(row).(c));
          used.(c) <- false
        end
      done
  in
  go 0 0.0;
  !best

let brute_force_max matrix = -.brute_force_min (negate matrix)

(* Integer weights in [lo, hi] on a matrix of at most
   [max_rows] x [max_cols] (rows clamped to cols). *)
let gen_matrix ~max_rows ~max_cols ~lo ~hi =
  QCheck2.Gen.(
    bind (pair (int_range 1 max_rows) (int_range 1 max_cols)) (fun (rows, cols) ->
        let rows = min rows cols in
        array_size (return rows)
          (array_size (return cols) (map float_of_int (int_range lo hi)))))

let matrix_gen = gen_matrix ~max_rows:6 ~max_cols:7 ~lo:0 ~hi:50

(* Small weight alphabet: optima are massively tied, so the total is
   checked where many assignments share it. *)
let tied_matrix_gen = gen_matrix ~max_rows:5 ~max_cols:6 ~lo:0 ~hi:3
let signed_matrix_gen = gen_matrix ~max_rows:6 ~max_cols:7 ~lo:(-30) ~hi:30
let any_matrix_gen = QCheck2.Gen.oneof [ matrix_gen; tied_matrix_gen; signed_matrix_gen ]

let qcheck_optimal_vs_brute_force =
  QCheck2.Test.make ~name:"Hungarian matches brute force" ~count:600 any_matrix_gen
    (fun m ->
      let assign = Matcher.min_cost m in
      abs_float (assignment_weight m assign -. brute_force_min m) < 1e-6)

let qcheck_assignment_valid =
  QCheck2.Test.make ~name:"assignment is injective and total" ~count:300 matrix_gen
    (fun m ->
      let assign = Matcher.min_cost m in
      let cols = Array.length m.(0) in
      Array.length assign = Array.length m
      && Array.for_all (fun c -> c >= 0 && c < cols) assign
      && List.length (List.sort_uniq Int.compare (Array.to_list assign))
         = Array.length assign)

let qcheck_max_weight_vs_brute_force =
  QCheck2.Test.make ~name:"max_weight matches brute-force max" ~count:400 any_matrix_gen
    (fun m ->
      let assign = Matcher.max_weight m in
      abs_float (assignment_weight m assign -. brute_force_max m) < 1e-6)

let () =
  Alcotest.run "rb_matching"
    [
      ( "hungarian",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "anti-diagonal" `Quick test_antidiagonal;
          Alcotest.test_case "classic 3x3" `Quick test_classic_3x3;
          Alcotest.test_case "rectangular" `Quick test_rectangular;
          Alcotest.test_case "max weight" `Quick test_max_weight;
          Alcotest.test_case "negative weights" `Quick test_negative_weights;
          Alcotest.test_case "single cell" `Quick test_single_cell;
          Alcotest.test_case "all equal" `Quick test_all_equal_weights;
          Alcotest.test_case "40x48 local optimality" `Quick test_large_local_optimality;
          Alcotest.test_case "empty" `Quick test_empty_is_empty;
          Alcotest.test_case "validation" `Quick test_validation_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_optimal_vs_brute_force;
            qcheck_assignment_valid;
            qcheck_max_weight_vs_brute_force;
          ] );
    ]
