module Scheme = Rb_locking.Scheme
module Resilience = Rb_locking.Resilience
module Config = Rb_locking.Config
module Minterm = Rb_dfg.Minterm

(* ------------------------------------------------------------- scheme *)

let test_scheme_key_bits () =
  Alcotest.(check int) "SFLL: h * n" 48
    (Scheme.key_bits Scheme.Sfll_rem ~minterms:3 ~input_bits:16)

(* --------------------------------------------------------- resilience *)

let lam minterms =
  Resilience.lambda_minterms ~key_bits:16 ~input_bits:16 ~minterms

let test_lambda_monotone_in_minterms () =
  let l1 = lam 1 and l4 = lam 4 and l64 = lam 64 in
  Alcotest.(check bool) "decreasing" true (l1 >= l4 && l4 >= l64);
  Alcotest.(check bool) "single minterm is strong" true (l1 > 1000.0)

let test_lambda_monotone_in_keybits () =
  (* In the convergent regime (epsilon * wrong-keys > 1), more key bits
     mean more expected iterations. *)
  let l k = Resilience.lambda_minterms ~key_bits:k ~input_bits:16 ~minterms:4 in
  Alcotest.(check bool) "finite at 17 bits" true (l 17 < infinity);
  Alcotest.(check bool) "more key bits, more iterations" true (l 25 >= l 17)

let test_lambda_divergent_regime () =
  (* When a DIP eliminates less than one wrong key in expectation
     (epsilon * N < 1), Eqn. 1 predicts the attack never converges. *)
  let l = Resilience.lambda_minterms ~key_bits:12 ~input_bits:16 ~minterms:4 in
  Alcotest.(check bool) "divergent" true (l = infinity)

let test_lambda_high_epsilon_trivial () =
  (* epsilon = 0.9 kills 90% of wrong keys per DIP: 255 wrong keys fall
     within a handful of iterations. *)
  let l = Resilience.lambda ~key_bits:8 ~epsilon:0.9 in
  Alcotest.(check bool) "near-total corruption falls immediately" true (l <= 5.0)

let test_lambda_invalid_args () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | (_ : float) -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Resilience.lambda ~key_bits:8 ~epsilon:0.0);
  invalid (fun () -> Resilience.lambda ~key_bits:8 ~epsilon:1.0);
  invalid (fun () -> Resilience.lambda ~key_bits:0 ~epsilon:0.5);
  invalid (fun () ->
      Resilience.lambda_minterms ~key_bits:8 ~input_bits:8 ~minterms:0)

let test_max_minterms_for () =
  let budget =
    Resilience.max_minterms_for ~key_bits:16 ~input_bits:16
      ~min_lambda:1000.0
  in
  Alcotest.(check bool) "positive budget" true (budget >= 1);
  Alcotest.(check bool) "budget meets bound" true
    (lam budget >= 1000.0);
  Alcotest.(check bool) "budget is maximal" true
    (budget = 65535 || lam (budget + 1) < 1000.0)

let test_max_minterms_unreachable () =
  (* key space 2^20 over a 2^16 input space: even one locked minterm
     corrupts enough (epsilon*N = 16) for the attack to converge far
     below the absurd target, so no budget exists. *)
  let budget =
    Resilience.max_minterms_for ~key_bits:20 ~input_bits:16
      ~min_lambda:1e12
  in
  Alcotest.(check int) "no budget" 0 budget

(* -------------------------------------------------------------- config *)

let m1 = Minterm.pack 1 2
let m2 = Minterm.pack 3 4

let test_config_accessors () =
  let c = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (2, [ m1; m2 ]); (0, [ m1 ]) ] in
  Alcotest.(check (list int)) "ascending fus" [ 0; 2 ] (Config.locked_fus c);
  Alcotest.(check int) "minterms of fu 2" 2 (Minterm.Set.cardinal (Config.minterms_of c 2));
  Alcotest.(check bool) "locked input" true (Config.is_locked_input c ~fu:2 m1);
  Alcotest.(check bool) "unlocked fu" false (Config.is_locked_input c ~fu:1 m1);
  Alcotest.(check bool) "unlocked minterm" false (Config.is_locked_input c ~fu:0 m2)

let test_config_validation () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Config.t) -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, [ m1 ]); (0, [ m2 ]) ]);
  invalid (fun () -> Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, []) ]);
  invalid (fun () -> Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (-1, [ m1 ]) ])

let test_config_corrupt_involution () =
  Alcotest.(check int) "flips bit 0" 1 (Config.corrupt 0);
  Alcotest.(check int) "twice is identity" 77 (Config.corrupt (Config.corrupt 77));
  Alcotest.(check bool) "never identity" true (Config.corrupt 42 <> 42)

let test_config_lambda_per_fu_uses_weakest () =
  let one = Config.make ~scheme:Scheme.Sfll_rem ~locks:[ (0, [ m1 ]) ] in
  let many =
    Config.make ~scheme:Scheme.Sfll_rem
      ~locks:[ (0, [ m1 ]); (1, List.init 40 (fun i -> Minterm.of_int i)) ]
  in
  Alcotest.(check bool) "more corrupting FU lowers design resilience" true
    (Config.lambda_per_fu many < Config.lambda_per_fu one);
  (* one FU's key length and Eqn. 1 bound: the scheme's key for its
     minterm count, or a fixed budget *)
  let lam40 key_bits = Resilience.lambda_minterms ~key_bits ~input_bits:16 ~minterms:40 in
  Alcotest.(check (pair int (float 0.))) "scheme key and lambda" (640, lam40 640)
    (Config.resilience many 1);
  Alcotest.(check (pair int (float 0.))) "fixed key and lambda" (20, lam40 20)
    (Config.resilience ~key_bits:20 many 1);
  Alcotest.(check (float 0.)) "fixed key, weakest FU" (lam40 20)
    (Config.lambda_per_fu ~key_bits:20 many);
  match Config.resilience many 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unlocked FU accepted"

(* Cross-level consistency: the behavioural wrong-key model
   (Config.corrupt = bit-0 flip on locked minterms) is exactly what the
   gate-level SFLL-style construction does to a word-level adder FU. *)
let test_behavioural_model_matches_gate_level () =
  let width = Rb_dfg.Word.width in
  let base = Rb_netlist.Circuits.adder ~width in
  let m1 = Rb_dfg.Minterm.pack 10 20 and m2 = Rb_dfg.Minterm.pack 77 200 in
  let protected_minterms = [ Rb_dfg.Minterm.to_int m1; Rb_dfg.Minterm.to_int m2 ] in
  let locked = Rb_netlist.Lock.point_function ~minterms:protected_minterms base in
  (* wrong key programming two patterns outside the protected set *)
  let n_in = 2 * width in
  let wrong_patterns = [ 3; 5 ] in
  let wrong = Array.make (Rb_netlist.Netlist.n_keys locked.Rb_netlist.Lock.circuit) false in
  List.iteri
    (fun j m ->
      for i = 0 to n_in - 1 do
        wrong.((j * n_in) + i) <- (m lsr i) land 1 = 1
      done)
    wrong_patterns;
  let pack_key k =
    Array.to_list k |> List.mapi (fun i b -> if b then 1 lsl i else 0) |> List.fold_left ( lor ) 0
  in
  let wrong_key = pack_key wrong in
  List.iter
    (fun m ->
      let a, b = Rb_dfg.Minterm.unpack m in
      let clean = Rb_dfg.Word.add a b in
      let gate_out =
        Rb_netlist.Netlist.eval_words locked.Rb_netlist.Lock.circuit
          ~inputs:(Rb_dfg.Minterm.to_int m) ~keys:wrong_key
      in
      Alcotest.(check int)
        (Format.asprintf "gate-level corruption at %a" Rb_dfg.Minterm.pp m)
        (Config.corrupt clean) gate_out)
    [ m1; m2 ];
  (* and on a non-locked minterm the wrong key behaves cleanly *)
  let m3 = Rb_dfg.Minterm.pack 1 2 in
  Alcotest.(check int) "clean elsewhere" (Rb_dfg.Word.add 1 2)
    (Rb_netlist.Netlist.eval_words locked.Rb_netlist.Lock.circuit
       ~inputs:(Rb_dfg.Minterm.to_int m3) ~keys:wrong_key)

let qcheck_lambda_decreasing =
  QCheck2.Test.make ~name:"lambda non-increasing in epsilon" ~count:200
    QCheck2.Gen.(triple (int_range 4 20) (float_range 0.0001 0.4) (float_range 1.01 2.0))
    (fun (key_bits, eps, factor) ->
      let l1 = Resilience.lambda ~key_bits ~epsilon:eps in
      let l2 = Resilience.lambda ~key_bits ~epsilon:(min 0.9 (eps *. factor)) in
      l1 >= l2)

let qcheck_max_minterms_consistent =
  QCheck2.Test.make ~name:"max_minterms_for meets its own bound" ~count:100
    QCheck2.Gen.(pair (int_range 6 20) (float_range 1.0 100000.0))
    (fun (key_bits, min_lambda) ->
      let budget =
        Resilience.max_minterms_for ~key_bits ~input_bits:16 ~min_lambda
      in
      budget = 0
      || Resilience.lambda_minterms ~key_bits ~input_bits:16
           ~minterms:budget
         >= min_lambda)

let () =
  Alcotest.run "rb_locking"
    [
      ( "scheme",
        [
          Alcotest.test_case "key bits" `Quick test_scheme_key_bits;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "monotone in minterms" `Quick test_lambda_monotone_in_minterms;
          Alcotest.test_case "monotone in key bits" `Quick test_lambda_monotone_in_keybits;
          Alcotest.test_case "divergent regime" `Quick test_lambda_divergent_regime;
          Alcotest.test_case "high epsilon" `Quick test_lambda_high_epsilon_trivial;
          Alcotest.test_case "invalid args" `Quick test_lambda_invalid_args;
          Alcotest.test_case "max minterms" `Quick test_max_minterms_for;
          Alcotest.test_case "unreachable target" `Quick test_max_minterms_unreachable;
        ] );
      ( "config",
        [
          Alcotest.test_case "accessors" `Quick test_config_accessors;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "corrupt involution" `Quick test_config_corrupt_involution;
          Alcotest.test_case "lambda per fu" `Quick test_config_lambda_per_fu_uses_weakest;
          Alcotest.test_case "matches gate level" `Quick test_behavioural_model_matches_gate_level;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_lambda_decreasing; qcheck_max_minterms_consistent ] );
    ]
