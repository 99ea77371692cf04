module Netlist = Rb_netlist.Netlist
module Circuits = Rb_netlist.Circuits
module Lock = Rb_netlist.Lock
module Word = Rb_dfg.Word
module Rng = Rb_util.Rng
module B = Netlist.Builder
module Testgen = Rb_testsupport.Testgen

let pack_bools bits =
  Array.to_list bits
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( lor ) 0

let no_keys = [||]

(* ---------------------------------------------------------- structural *)

let test_builder_basics () =
  let b = B.create ~n_inputs:2 ~n_keys:0 in
  let x = B.input b 0 and y = B.input b 1 in
  let g = B.and_ b x y in
  B.output b g;
  let c = B.finish b in
  Alcotest.(check int) "inputs" 2 (Netlist.n_inputs c);
  Alcotest.(check int) "gates" 1 (Netlist.n_gates c);
  Alcotest.(check int) "and(1,1)" 1 (Netlist.eval_words c ~inputs:3 ~keys:0);
  Alcotest.(check int) "and(1,0)" 0 (Netlist.eval_words c ~inputs:1 ~keys:0)

let test_eval_words_rejects_wide_circuits () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : int) -> Alcotest.fail "expected Invalid_argument"
  in
  (* 63 inputs: packed input word would not fit an OCaml int *)
  let b = B.create ~n_inputs:63 ~n_keys:0 in
  B.output b (B.input b 0);
  let wide_in = B.finish b in
  expect_invalid (fun () -> Netlist.eval_words wide_in ~inputs:0 ~keys:0);
  (* 63 outputs over one input *)
  let b = B.create ~n_inputs:1 ~n_keys:0 in
  for _ = 1 to 63 do
    B.output b (B.gate b (Netlist.Buf (B.input b 0)))
  done;
  let wide_out = B.finish b in
  expect_invalid (fun () -> Netlist.eval_words wide_out ~inputs:1 ~keys:0);
  (* 63 keys *)
  let b = B.create ~n_inputs:1 ~n_keys:63 in
  B.output b (B.xor_ b (B.input b 0) (B.key b 62));
  let wide_key = B.finish b in
  expect_invalid (fun () -> Netlist.eval_words wide_key ~inputs:1 ~keys:0);
  (* 62 of everything is still fine *)
  let b = B.create ~n_inputs:62 ~n_keys:0 in
  B.output b (B.input b 3);
  let ok = B.finish b in
  Alcotest.(check int) "62 inputs ok" 1 (Netlist.eval_words ok ~inputs:8 ~keys:0)

let test_all_gate_semantics () =
  let b = B.create ~n_inputs:3 ~n_keys:0 in
  let x = B.input b 0 and y = B.input b 1 and s = B.input b 2 in
  List.iter
    (fun g -> B.output b (B.gate b g))
    [
      Netlist.And (x, y); Netlist.Or (x, y); Netlist.Xor (x, y);
      Netlist.Nand (x, y); Netlist.Nor (x, y); Netlist.Xnor (x, y);
      Netlist.Not x; Netlist.Buf x; Netlist.Mux (s, x, y);
      Netlist.Const true; Netlist.Const false;
    ];
  let c = B.finish b in
  for v = 0 to 7 do
    let x = v land 1 = 1 and y = v land 2 = 2 and s = v land 4 = 4 in
    let out = Netlist.eval c ~inputs:[| x; y; s |] ~keys:no_keys in
    let expect =
      [| x && y; x || y; x <> y; not (x && y); not (x || y); x = y;
         not x; x; (if s then y else x); true; false |]
    in
    Alcotest.(check (array bool)) (Printf.sprintf "input %d" v) expect out
  done

(* The builder is the only way to make a netlist, so what it rejects —
   an operand or output naming a net that does not exist yet — can
   never reach an evaluator or an analysis. *)
let test_builder_rejects_undefined_net () =
  let b = B.create ~n_inputs:1 ~n_keys:0 in
  (match B.and_ b 0 99 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "undefined net accepted");
  (match B.gate b (Netlist.Buf 1) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "self reference accepted");
  match B.output b 9 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "dangling output accepted"

let test_output_cone () =
  let b = B.create ~n_inputs:2 ~n_keys:0 in
  let x = B.input b 0 and y = B.input b 1 in
  let live = B.and_ b x y in
  let dead = B.or_ b x y in
  B.output b live;
  let c = B.finish b in
  let cone = Netlist.output_cone c in
  Alcotest.(check bool) "live gate in cone" true (cone.(live) >= 0);
  Alcotest.(check bool) "dead gate out of cone" true (cone.(dead) = -1);
  Alcotest.(check bool) "inputs in cone" true (cone.(x) >= 0 && cone.(y) >= 0);
  (* depth in gates: x reaches an output through a (1 gate) and through
     p, q (2 gates); the later gates must not overwrite the shorter path *)
  let b = B.create ~n_inputs:2 ~n_keys:0 in
  let x = B.input b 0 and y = B.input b 1 in
  let a = B.and_ b x y in
  let p = B.not_ b x in
  let q = B.not_ b p in
  let dead = B.or_ b y q in
  B.output b a;
  B.output b q;
  let c = B.finish b in
  Alcotest.(check (array int)) "distances" [| 1; 1; 0; 1; 0; -1 |]
    (Array.map (fun net -> (Netlist.output_cone c).(net)) [| x; y; a; p; q; dead |])

let test_eval_width_mismatch () =
  let c = Circuits.adder ~width:4 in
  match Netlist.eval c ~inputs:[| true |] ~keys:no_keys with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width mismatch accepted"

(* ---------------------------------------------------------- arithmetic *)

let test_adder_exhaustive () =
  let width = 4 in
  let c = Circuits.adder ~width in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let out = Netlist.eval_words c ~inputs:(a lor (b lsl width)) ~keys:0 in
      Alcotest.(check int) (Printf.sprintf "%d+%d" a b) ((a + b) land 15) out
    done
  done

let test_multiplier_exhaustive () =
  let width = 4 in
  let c = Circuits.multiplier ~width in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let out = Netlist.eval_words c ~inputs:(a lor (b lsl width)) ~keys:0 in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b land 15) out
    done
  done

let test_adder_word_width_matches_word_module () =
  let c = Circuits.adder ~width:Word.width in
  let rng = Rng.create 99 in
  for _ = 1 to 500 do
    let a = Rng.int rng 256 and b = Rng.int rng 256 in
    let out = Netlist.eval_words c ~inputs:(a lor (b lsl Word.width)) ~keys:0 in
    Alcotest.(check int) "matches Word.add" (Word.add a b) out
  done

let test_equals_const () =
  let b = B.create ~n_inputs:4 ~n_keys:0 in
  let x = Array.init 4 (fun i -> B.input b i) in
  B.output b (Circuits.equals_const b x 0b1010);
  let c = B.finish b in
  for v = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "v=%d" v)
      (if v = 0b1010 then 1 else 0)
      (Netlist.eval_words c ~inputs:v ~keys:0)
  done

let test_equals_bits () =
  let b = B.create ~n_inputs:6 ~n_keys:0 in
  let x = Array.init 3 (fun i -> B.input b i) in
  let y = Array.init 3 (fun i -> B.input b (3 + i)) in
  B.output b (Circuits.equals_bits b x y);
  let c = B.finish b in
  for a = 0 to 7 do
    for bb = 0 to 7 do
      Alcotest.(check int) (Printf.sprintf "%d=%d" a bb)
        (if a = bb then 1 else 0)
        (Netlist.eval_words c ~inputs:(a lor (bb lsl 3)) ~keys:0)
    done
  done

(* ------------------------------------------------------------- locking *)

let correct_key_preserves locked base =
  let w = Netlist.n_inputs base in
  let key = pack_bools locked.Lock.correct_key in
  let ok = ref true in
  for v = 0 to (1 lsl w) - 1 do
    if
      Netlist.eval_words locked.Lock.circuit ~inputs:v ~keys:key
      <> Netlist.eval_words base ~inputs:v ~keys:0
    then ok := false
  done;
  !ok

let test_xor_lock_correct_key () =
  let rng = Rng.create 4 in
  let base = Circuits.adder ~width:4 in
  let locked = Lock.xor_random ~rng ~key_bits:10 base in
  Alcotest.(check int) "key width" 10 (Netlist.n_keys locked.Lock.circuit);
  Alcotest.(check bool) "correct key preserves function" true
    (correct_key_preserves locked base)

let test_xor_lock_wrong_key_corrupts () =
  let rng = Rng.create 5 in
  let base = Circuits.adder ~width:4 in
  let locked = Lock.xor_random ~rng ~key_bits:10 base in
  let wrong = Array.copy locked.Lock.correct_key in
  wrong.(0) <- not wrong.(0);
  Alcotest.(check bool) "wrong key corrupts something" true
    (Lock.error_rate locked ~key:wrong > 0.0)

let test_xor_lock_rejects_bad_args () =
  let rng = Rng.create 6 in
  let base = Circuits.adder ~width:2 in
  (match Lock.xor_random ~rng ~key_bits:10_000 base with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "oversized key accepted");
  let already = (Lock.xor_random ~rng ~key_bits:2 base).Lock.circuit in
  match Lock.xor_random ~rng ~key_bits:2 already with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double locking accepted"

let test_point_function_semantics () =
  let base = Circuits.adder ~width:3 in
  let protected_minterms = [ 5; 44 ] in
  let locked = Lock.point_function ~minterms:protected_minterms base in
  Alcotest.(check bool) "correct key preserves" true (correct_key_preserves locked base);
  (* A wrong key programming untouched patterns corrupts exactly the
     protected minterms plus the wrongly programmed ones. *)
  let n_in = Netlist.n_inputs base in
  let wrong_patterns = [ 9; 21 ] in
  let wrong = Array.make (Netlist.n_keys locked.Lock.circuit) false in
  List.iteri
    (fun j m ->
      for i = 0 to n_in - 1 do
        wrong.((j * n_in) + i) <- (m lsr i) land 1 = 1
      done)
    wrong_patterns;
  let diffs = Lock.wrong_key_locked_minterms locked ~key:wrong in
  Alcotest.(check (list int)) "locked inputs are static and known"
    (List.sort Int.compare (protected_minterms @ wrong_patterns))
    diffs

let test_point_function_error_rate_small () =
  let base = Circuits.adder ~width:3 in
  let locked = Lock.point_function ~minterms:[ 7 ] base in
  let wrong = Array.make (Netlist.n_keys locked.Lock.circuit) false in
  (* all-zero key programs pattern 0: errors at {0, 7} out of 64. *)
  Alcotest.(check (float 1e-9)) "2/64" (2.0 /. 64.0) (Lock.error_rate locked ~key:wrong)

let test_anti_sat_correct_key () =
  let rng = Rng.create 11 in
  let base = Circuits.adder ~width:3 in
  let locked = Lock.anti_sat ~rng base in
  Alcotest.(check int) "key width 2n" 12 (Netlist.n_keys locked.Lock.circuit);
  Alcotest.(check bool) "correct key preserves" true (correct_key_preserves locked base)

let test_anti_sat_any_matched_key_correct () =
  (* every key with K1 = K2 keeps Y = 0: multiple correct keys. *)
  let rng = Rng.create 12 in
  let base = Circuits.adder ~width:2 in
  let locked = Lock.anti_sat ~rng base in
  let half = Array.init 4 (fun i -> i mod 2 = 1) in
  let matched = Array.append half half in
  Alcotest.(check (float 1e-9)) "K1=K2 is correct" 0.0 (Lock.error_rate locked ~key:matched)

let test_anti_sat_wrong_key_one_minterm () =
  let rng = Rng.create 13 in
  let base = Circuits.adder ~width:3 in
  let locked = Lock.anti_sat ~rng base in
  let wrong = Array.copy locked.Lock.correct_key in
  wrong.(0) <- not wrong.(0);
  (* K1 differs from K2: exactly one corrupted input pattern *)
  Alcotest.(check int) "single locked input" 1
    (List.length (Lock.wrong_key_locked_minterms locked ~key:wrong))

let test_permutation_network () =
  let rng = Rng.create 7 in
  let base = Circuits.adder ~width:3 in
  let locked = Lock.permutation_network ~rng ~layers:4 base in
  Alcotest.(check bool) "correct key preserves" true (correct_key_preserves locked base);
  Alcotest.(check bool) "mux overhead is real" true
    (Lock.gate_overhead locked ~baseline:base > 0.0)

let test_permutation_network_wrong_key () =
  let rng = Rng.create 8 in
  let base = Circuits.multiplier ~width:3 in
  let locked = Lock.permutation_network ~rng ~layers:3 base in
  let wrong = Array.map not locked.Lock.correct_key in
  Alcotest.(check bool) "inverted controls corrupt heavily" true
    (Lock.error_rate locked ~key:wrong > 0.1)

let test_permutation_network_all_keys_drive_swaps () =
  (* Regression: offset layers of an even-width network have one swap
     fewer, and key bits used to be allocated as if every layer were
     full, leaving dead key inputs. Every key bit must now reach an
     output. *)
  List.iter
    (fun (width, layers) ->
      let rng = Rng.create 21 in
      let base = Circuits.adder ~width in
      let locked = Lock.permutation_network ~rng ~layers base in
      let cone = Netlist.output_cone locked.Lock.circuit in
      let c = locked.Lock.circuit in
      for k = 0 to Netlist.n_keys c - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "w%d l%d key %d live" width layers k)
          true
          (cone.(Netlist.n_inputs c + k) >= 0)
      done)
    [ (2, 2); (3, 3); (4, 2); (4, 5) ]

(* Distances against a brute-force shortest path: relax every gate's
   operands to one gate more than the gate's own distance, sweeping in
   gate order (the opposite of the reverse sweep's) until nothing
   changes. *)
let qcheck_output_cone_shortest_path =
  QCheck2.Test.make ~name:"output_cone = brute-force shortest path" ~count:200
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c =
        Testgen.random_netlist rng ~n_inputs:(1 + Rng.int rng 4)
          ~n_keys:(Rng.int rng 3) ~n_gates:(1 + Rng.int rng 40)
      in
      let base = Netlist.n_inputs c + Netlist.n_keys c in
      let dist = Array.make (Netlist.n_nets c) None in
      Array.iter (fun o -> dist.(o) <- Some 0) (Netlist.outputs c);
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun i g ->
            match dist.(base + i) with
            | None -> ()
            | Some d ->
              List.iter
                (fun f ->
                  match dist.(f) with
                  | Some e when e <= d + 1 -> ()
                  | _ ->
                    dist.(f) <- Some (d + 1);
                    changed := true)
                (Netlist.gate_fanin g))
          (Netlist.gates c)
      done;
      Netlist.output_cone c = Array.map (Option.value ~default:(-1)) dist)

(* Every gate constructor at least once, in a random order, over
   operands drawn from every earlier net. Every gate is an output, and
   each of the 63 lanes is checked against the reference evaluator
   [Testgen.eval_nets], which has its own gate table, and against
   [Netlist.eval] (a one-lane [eval_lanes]) on its own bits. *)
let qcheck_eval_lanes_matches_eval =
  QCheck2.Test.make ~name:"eval_lanes = eval lane by lane" ~count:200
    QCheck2.Gen.(triple (int_range 1 7) (int_range 0 2) int)
    (fun (n_in, n_keys, seed) ->
      let rng = Rng.create seed in
      let n_gates = 10 + Rng.int rng 20 in
      let b = B.create ~n_inputs:n_in ~n_keys in
      let gate i k =
        let net () = Rng.int rng (n_in + n_keys + i) in
        match k with
        | 0 -> Netlist.And (net (), net ())
        | 1 -> Netlist.Or (net (), net ())
        | 2 -> Netlist.Xor (net (), net ())
        | 3 -> Netlist.Nand (net (), net ())
        | 4 -> Netlist.Nor (net (), net ())
        | 5 -> Netlist.Xnor (net (), net ())
        | 6 -> Netlist.Not (net ())
        | 7 -> Netlist.Buf (net ())
        | 8 -> Netlist.Mux (net (), net (), net ())
        | _ -> Netlist.Const (Rng.bool rng)
      in
      let kinds = Array.init n_gates (fun i -> if i < 10 then i else Rng.int rng 10) in
      Rng.shuffle rng kinds;
      Array.iteri (fun i k -> B.output b (B.gate b (gate i k))) kinds;
      let c = B.finish b in
      let outputs = Netlist.outputs c in
      let values = Array.make (Netlist.n_nets c) 0 in
      for i = 0 to n_in + n_keys - 1 do
        values.(i) <- Int64.to_int (Rng.bits64 rng)
      done;
      let bit w j = (w lsr j) land 1 = 1 in
      let inputs_words = Array.sub values 0 (n_in + n_keys) in
      Netlist.eval_lanes c values;
      List.for_all
        (fun j ->
          let inputs = Array.init n_in (fun i -> bit inputs_words.(i) j) in
          let keys = Array.init n_keys (fun k -> bit inputs_words.(n_in + k) j) in
          let lane = Array.map (fun o -> bit values.(o) j) outputs in
          Testgen.eval_outputs c ~inputs ~keys = lane && Netlist.eval c ~inputs ~keys = lane)
        (List.init 63 Fun.id))

let qcheck_adder_random_widths =
  QCheck2.Test.make ~name:"adders wrap at any width" ~count:100
    QCheck2.Gen.(triple (int_range 1 8) (int_range 0 255) (int_range 0 255))
    (fun (w, a, b) ->
      let mask = (1 lsl w) - 1 in
      let a = a land mask and b = b land mask in
      let c = Circuits.adder ~width:w in
      Netlist.eval_words c ~inputs:(a lor (b lsl w)) ~keys:0 = (a + b) land mask)

let qcheck_multiplier_random_widths =
  QCheck2.Test.make ~name:"multipliers truncate at any width" ~count:100
    QCheck2.Gen.(triple (int_range 1 6) (int_range 0 255) (int_range 0 255))
    (fun (w, a, b) ->
      let mask = (1 lsl w) - 1 in
      let a = a land mask and b = b land mask in
      let c = Circuits.multiplier ~width:w in
      Netlist.eval_words c ~inputs:(a lor (b lsl w)) ~keys:0 = a * b land mask)

let qcheck_xor_lock_flipping_one_bit =
  QCheck2.Test.make ~name:"flipping any key bit of RLL corrupts" ~count:30
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 7))
    (fun (seed, bit) ->
      let rng = Rng.create seed in
      let base = Circuits.adder ~width:3 in
      let locked = Lock.xor_random ~rng ~key_bits:8 base in
      let wrong = Array.copy locked.Lock.correct_key in
      wrong.(bit) <- not wrong.(bit);
      (* an inverted key gate must corrupt at least one input pattern
         unless it is masked by reconvergence; RLL on a ripple adder
         has no masking for single-bit flips on these positions *)
      Lock.error_rate locked ~key:wrong > 0.0)

let () =
  Alcotest.run "rb_netlist"
    [
      ( "structure",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basics;
          Alcotest.test_case "gate semantics" `Quick test_all_gate_semantics;
          Alcotest.test_case "eval_words width guard" `Quick
            test_eval_words_rejects_wide_circuits;
          Alcotest.test_case "undefined net" `Quick test_builder_rejects_undefined_net;
          Alcotest.test_case "width mismatch" `Quick test_eval_width_mismatch;
          Alcotest.test_case "output cone" `Quick test_output_cone;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "adder exhaustive" `Quick test_adder_exhaustive;
          Alcotest.test_case "multiplier exhaustive" `Quick test_multiplier_exhaustive;
          Alcotest.test_case "word-width adder" `Quick test_adder_word_width_matches_word_module;
          Alcotest.test_case "equals const" `Quick test_equals_const;
          Alcotest.test_case "equals bits" `Quick test_equals_bits;
        ] );
      ( "locking",
        [
          Alcotest.test_case "xor correct key" `Quick test_xor_lock_correct_key;
          Alcotest.test_case "xor wrong key" `Quick test_xor_lock_wrong_key_corrupts;
          Alcotest.test_case "xor bad args" `Quick test_xor_lock_rejects_bad_args;
          Alcotest.test_case "point function semantics" `Quick test_point_function_semantics;
          Alcotest.test_case "point function rate" `Quick test_point_function_error_rate_small;
          Alcotest.test_case "anti-sat correct key" `Quick test_anti_sat_correct_key;
          Alcotest.test_case "anti-sat matched keys" `Quick test_anti_sat_any_matched_key_correct;
          Alcotest.test_case "anti-sat wrong key" `Quick test_anti_sat_wrong_key_one_minterm;
          Alcotest.test_case "permutation network" `Quick test_permutation_network;
          Alcotest.test_case "permnet wrong key" `Quick test_permutation_network_wrong_key;
          Alcotest.test_case "permnet keys all live" `Quick
            test_permutation_network_all_keys_drive_swaps;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_adder_random_widths;
            qcheck_multiplier_random_widths;
            qcheck_xor_lock_flipping_one_bit;
            qcheck_eval_lanes_matches_eval;
            qcheck_output_cone_shortest_path;
          ] );
    ]
