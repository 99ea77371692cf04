module Dfg = Rb_dfg.Dfg
module Word = Rb_dfg.Word
module Minterm = Rb_dfg.Minterm
module B = Dfg.Builder

(* y = (a + b) * (a + 3); z = y + b *)
let sample_dfg () =
  let b = B.create "sample" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let s = B.add ~label:"s" b a bb in
  let t = B.add ~label:"t" b a (B.const 3) in
  let y = B.mul ~label:"y" b s t in
  let z = B.add ~label:"z" b y bb in
  B.output b z;
  (B.finish b, (s, t, y, z))

let op_id = function Dfg.Op id -> id | Dfg.Input _ | Dfg.Const _ -> assert false

let test_builder_structure () =
  let dfg, (s, t, y, z) = sample_dfg () in
  Alcotest.(check int) "op count" 4 (Dfg.op_count dfg);
  Alcotest.(check (list string)) "inputs in first-use order" [ "a"; "b" ] (Dfg.inputs dfg);
  Alcotest.(check (list int)) "outputs" [ op_id z ] (Dfg.outputs dfg);
  Alcotest.(check (list int)) "adds" [ op_id s; op_id t; op_id z ] (Dfg.ops_of_kind dfg Dfg.Add);
  Alcotest.(check (list int)) "muls" [ op_id y ] (Dfg.ops_of_kind dfg Dfg.Mul)

let test_predecessors_successors () =
  let dfg, (s, t, y, z) = sample_dfg () in
  Alcotest.(check (list int)) "y's preds" [ op_id s; op_id t ] (Dfg.predecessors dfg (op_id y));
  Alcotest.(check (list int)) "s's succs" [ op_id y ] (Dfg.successors dfg (op_id s));
  Alcotest.(check (list int)) "y's succs" [ op_id z ] (Dfg.successors dfg (op_id y));
  Alcotest.(check (list int)) "z has no succs" [] (Dfg.successors dfg (op_id z));
  Alcotest.(check (list int)) "s has no op preds" [] (Dfg.predecessors dfg (op_id s))

let test_validate_good () =
  let dfg, _ = sample_dfg () in
  Alcotest.(check bool) "valid" true (Result.is_ok (Dfg.validate dfg))

let test_builder_rejects_dangling () =
  let b = B.create "bad" in
  let a = B.input b "a" in
  match B.add b a (Dfg.Op 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for forward reference"

let test_builder_rejects_output_of_input () =
  let b = B.create "bad" in
  let a = B.input b "a" in
  match B.output b a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for input output"

let test_empty_dfg_rejected () =
  let b = B.create "empty" in
  match B.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for empty DFG"

let test_implicit_outputs () =
  let b = B.create "implicit" in
  let a = B.input b "a" in
  let x = B.add b a a in
  let _y = B.add b x x in
  (* no explicit output: the sink y becomes one implicitly *)
  let dfg = B.finish b in
  Alcotest.(check (list int)) "sink is implicit output" [ 1 ] (Dfg.outputs dfg)

let test_critical_path () =
  let dfg, _ = sample_dfg () in
  (* s/t (depth 1) -> y (2) -> z (3) *)
  Alcotest.(check int) "chain length" 3 (Dfg.critical_path_length dfg)

let test_dot_output () =
  let dfg, _ = sample_dfg () in
  let dot = Dfg.to_dot dfg in
  Alcotest.(check bool) "has digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  List.iter
    (fun op ->
      let marker = Printf.sprintf "op%d" op.Dfg.id in
      let found =
        let n = String.length dot and m = String.length marker in
        let rec go i = i + m <= n && (String.sub dot i m = marker || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (marker ^ " in dot") true found)
    (Array.to_list (Dfg.ops dfg))

let test_eval_kind () =
  Alcotest.(check int) "add wraps" 4 (Dfg.eval_kind Dfg.Add 250 10);
  Alcotest.(check int) "mul wraps" ((250 * 10) land 255) (Dfg.eval_kind Dfg.Mul 250 10)

(* ------------------------------------------------------------- Dfg_text *)

module Dfg_text = Rb_dfg.Dfg_text

let same_structure d1 d2 =
  Dfg.name d1 = Dfg.name d2
  && Dfg.inputs d1 = Dfg.inputs d2
  && Dfg.outputs d1 = Dfg.outputs d2
  && Dfg.op_count d1 = Dfg.op_count d2
  && List.for_all
       (fun id ->
         let o1 = Dfg.op d1 id and o2 = Dfg.op d2 id in
         o1.Dfg.kind = o2.Dfg.kind && o1.Dfg.lhs = o2.Dfg.lhs && o1.Dfg.rhs = o2.Dfg.rhs)
       (List.init (Dfg.op_count d1) Fun.id)

let test_text_roundtrip () =
  let dfg, _ = sample_dfg () in
  match Dfg_text.of_string (Dfg_text.to_string dfg) with
  | Ok parsed -> Alcotest.(check bool) "same structure" true (same_structure dfg parsed)
  | Error e -> Alcotest.fail e

let test_text_parse_concrete () =
  let text = "# a kernel\ndfg demo\ninput a\ninput b\nop 0 add a b\nop 1 mul %0 #3\noutput %1\n" in
  match Dfg_text.of_string text with
  | Ok dfg ->
    Alcotest.(check string) "name" "demo" (Dfg.name dfg);
    Alcotest.(check int) "ops" 2 (Dfg.op_count dfg);
    Alcotest.(check (list int)) "outputs" [ 1 ] (Dfg.outputs dfg);
    Alcotest.(check bool) "op1 is mul" true ((Dfg.op dfg 1).Dfg.kind = Dfg.Mul)
  | Error e -> Alcotest.fail e

let test_text_parse_errors () =
  let expect_error text =
    match Dfg_text.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" text
  in
  expect_error "";
  expect_error "dfg x\nop 1 add a b\n";
  expect_error "dfg x\ninput a\nop 0 add a undeclared\n";
  expect_error "dfg x\ninput a\nop 0 sub a a\n";
  expect_error "dfg x\ninput a\nop 0 add a %5\n";
  expect_error "dfg x\ninput a\nop 0 add a a\noutput a\n"

let test_text_roundtrip_benchmarks_shape () =
  (* round-trip a nontrivial generated graph *)
  let b = B.create "gen" in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let s1 = B.add b x y in
  let s2 = B.mul b s1 (B.const 7) in
  let s3 = B.add b s2 s1 in
  B.output b s3;
  let dfg = B.finish b in
  match Dfg_text.of_string (Dfg_text.to_string dfg) with
  | Ok parsed -> Alcotest.(check bool) "same" true (same_structure dfg parsed)
  | Error e -> Alcotest.fail e

(* ----------------------------------------------------------------- Expr *)

module Expr = Rb_dfg.Expr

let fir3 = "kernel fir3\ninput x0, x1, x2\nacc = 3*x0 + 11*x1 + 3*x2\ny = acc - x1\noutput y\n"

let test_expr_compile_structure () =
  match Expr.compile fir3 with
  | Error e -> Alcotest.fail e
  | Ok dfg ->
    Alcotest.(check string) "kernel name" "fir3" (Dfg.name dfg);
    Alcotest.(check (list string)) "inputs" [ "x0"; "x1"; "x2" ] (Dfg.inputs dfg);
    Alcotest.(check bool) "valid" true (Result.is_ok (Dfg.validate dfg));
    Alcotest.(check int) "one output" 1 (List.length (Dfg.outputs dfg))

let test_expr_matches_reference () =
  match Expr.compile fir3 with
  | Error e -> Alcotest.fail e
  | Ok dfg ->
    let values = [ ("x0", 7); ("x1", 200); ("x2", 13) ] in
    let lookup n = List.assoc n values in
    (match Expr.eval_reference fir3 ~inputs:lookup with
     | Error e -> Alcotest.fail e
     | Ok [ ("y", expected) ] ->
       (* evaluate the DFG on the same inputs *)
       let trace =
         Rb_sim.Trace.generate dfg ~n:1 ~f:(fun _ name -> lookup name)
       in
       let results = Exec_ref.eval_clean trace ~sample:0 in
       let out = List.hd (Dfg.outputs dfg) in
       Alcotest.(check int) "DFG = interpreter" expected results.(out).Exec_ref.result
     | Ok _ -> Alcotest.fail "expected one output")

let test_expr_constant_folding () =
  match Expr.compile "input a\ny = a + 2*3 + 1\noutput y\n" with
  | Error e -> Alcotest.fail e
  | Ok dfg ->
    (* 2*3 and +1 must fold: a + 6 + 1 -> two adds at most; folding
       inside the tree gives (a+6)+1 = 2 adds, no muls *)
    Alcotest.(check int) "no multiplies" 0 (List.length (Dfg.ops_of_kind dfg Dfg.Mul))

let test_expr_cse () =
  match Expr.compile "input a, b\nx = a + b\ny = a + b\nz = x * y\noutput z\n" with
  | Error e -> Alcotest.fail e
  | Ok dfg ->
    Alcotest.(check int) "one shared add" 1 (List.length (Dfg.ops_of_kind dfg Dfg.Add));
    (* z = (a+b)*(a+b): one multiply *)
    Alcotest.(check int) "one multiply" 1 (List.length (Dfg.ops_of_kind dfg Dfg.Mul))

let test_expr_errors () =
  let expect_error program =
    match Expr.compile program with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" program
  in
  expect_error "output y\n";
  expect_error "input a\ny = a + nope\noutput y\n";
  expect_error "input a\na = a + 1\noutput a\n";
  expect_error "input a\ny = a + 1\ny = a + 2\noutput y\n";
  expect_error "input a\noutput a\n";
  expect_error "input a\ny = (a + 1\noutput y\n";
  expect_error "input a\ny = a ? 1\noutput y\n";
  expect_error "input a\ny = a + 1\n"

(* random straight-line programs: compiled DFG == interpreter *)
let random_program seed =
  let rng = Rb_util.Rng.create seed in
  let buf = Buffer.create 128 in
  Buffer.add_string buf "input i0, i1, i2\n";
  let names = ref [ "i0"; "i1"; "i2" ] in
  let rec gen_expr depth =
    if depth = 0 || Rb_util.Rng.int rng 3 = 0 then
      if Rb_util.Rng.bool rng then List.nth !names (Rb_util.Rng.int rng (List.length !names))
      else string_of_int (Rb_util.Rng.int rng 256)
    else begin
      let op = [| "+"; "-"; "*" |].(Rb_util.Rng.int rng 3) in
      Printf.sprintf "(%s %s %s)" (gen_expr (depth - 1)) op (gen_expr (depth - 1))
    end
  in
  let n_stmts = 1 + Rb_util.Rng.int rng 5 in
  for i = 0 to n_stmts - 1 do
    let name = Printf.sprintf "v%d" i in
    Buffer.add_string buf (Printf.sprintf "%s = %s + i0\n" name (gen_expr 3));
    names := name :: !names
  done;
  Buffer.add_string buf (Printf.sprintf "output v%d\n" (n_stmts - 1));
  Buffer.contents buf

let qcheck_expr_compile_matches_interpreter =
  QCheck2.Test.make ~name:"compiled DFG matches the interpreter" ~count:100
    QCheck2.Gen.(pair (int_range 0 10_000) (triple (int_range 0 255) (int_range 0 255) (int_range 0 255)))
    (fun (seed, (a, b, c)) ->
      let program = random_program seed in
      let lookup = function "i0" -> a | "i1" -> b | _ -> c in
      match (Expr.compile program, Expr.eval_reference program ~inputs:lookup) with
      | Ok dfg, Ok [ (_, expected) ] ->
        let trace = Rb_sim.Trace.generate dfg ~n:1 ~f:(fun _ name -> lookup name) in
        let results = Exec_ref.eval_clean trace ~sample:0 in
        let out = List.hd (Dfg.outputs dfg) in
        results.(out).Exec_ref.result = expected
      | Ok _, Ok _ -> false
      | Error _, _ | _, Error _ -> false)

(* ----------------------------------------------------------------- Word *)

let test_word_constants () =
  Alcotest.(check int) "width" 8 Word.width;
  Alcotest.(check int) "mask" 255 Word.mask;
  Alcotest.(check int) "count" 256 Word.count

(* -------------------------------------------------------------- Minterm *)

let test_minterm_pack_unpack () =
  let m = Minterm.pack 17 254 in
  Alcotest.(check (pair int int)) "roundtrip" (17, 254) (Minterm.unpack m);
  Alcotest.(check int) "space" 65536 Minterm.space_size

let test_minterm_order () =
  Alcotest.(check bool) "ordered by packed int" true
    (Minterm.compare (Minterm.pack 0 5) (Minterm.pack 1 0) < 0)

let qcheck_word_ops_in_range =
  QCheck2.Test.make ~name:"word ops stay in range" ~count:1000
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 100000))
    (fun (a, b) ->
      let s = Word.add a b and p = Word.mul a b in
      s >= 0 && s <= Word.mask && p >= 0 && p <= Word.mask)

let qcheck_word_add_matches_mod =
  QCheck2.Test.make ~name:"add is mod-256 addition" ~count:1000
    QCheck2.Gen.(pair (int_range 0 255) (int_range 0 255))
    (fun (a, b) -> Word.add a b = (a + b) mod 256)

let qcheck_minterm_roundtrip =
  QCheck2.Test.make ~name:"minterm pack/unpack roundtrip" ~count:1000
    QCheck2.Gen.(pair (int_range 0 255) (int_range 0 255))
    (fun (a, b) -> Minterm.unpack (Minterm.pack a b) = (a, b))

let qcheck_minterm_of_to_int =
  QCheck2.Test.make ~name:"minterm of_int/to_int" ~count:1000
    QCheck2.Gen.(int_range 0 65535)
    (fun i -> Minterm.to_int (Minterm.of_int i) = i)

let () =
  Alcotest.run "rb_dfg"
    [
      ( "builder",
        [
          Alcotest.test_case "structure" `Quick test_builder_structure;
          Alcotest.test_case "preds/succs" `Quick test_predecessors_successors;
          Alcotest.test_case "validate" `Quick test_validate_good;
          Alcotest.test_case "dangling rejected" `Quick test_builder_rejects_dangling;
          Alcotest.test_case "output of input rejected" `Quick test_builder_rejects_output_of_input;
          Alcotest.test_case "empty rejected" `Quick test_empty_dfg_rejected;
          Alcotest.test_case "implicit outputs" `Quick test_implicit_outputs;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "dot export" `Quick test_dot_output;
          Alcotest.test_case "eval kinds" `Quick test_eval_kind;
        ] );
      ( "expr",
        [
          Alcotest.test_case "compile structure" `Quick test_expr_compile_structure;
          Alcotest.test_case "matches reference" `Quick test_expr_matches_reference;
          Alcotest.test_case "constant folding" `Quick test_expr_constant_folding;
          Alcotest.test_case "cse" `Quick test_expr_cse;
          Alcotest.test_case "errors" `Quick test_expr_errors;
        ] );
      ( "text-format",
        [
          Alcotest.test_case "roundtrip" `Quick test_text_roundtrip;
          Alcotest.test_case "concrete parse" `Quick test_text_parse_concrete;
          Alcotest.test_case "errors" `Quick test_text_parse_errors;
          Alcotest.test_case "generated roundtrip" `Quick test_text_roundtrip_benchmarks_shape;
        ] );
      ( "word+minterm",
        [
          Alcotest.test_case "word constants" `Quick test_word_constants;
          Alcotest.test_case "minterm roundtrip" `Quick test_minterm_pack_unpack;
          Alcotest.test_case "minterm order" `Quick test_minterm_order;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_expr_compile_matches_interpreter;
            qcheck_word_ops_in_range;
            qcheck_word_add_matches_mod;
            qcheck_minterm_roundtrip;
            qcheck_minterm_of_to_int;
          ] );
    ]
