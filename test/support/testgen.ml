module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module B = Dfg.Builder
module Rng = Rb_util.Rng
module Schedule = Rb_sched.Schedule

let random_dfg ?(n_ops = 20) ?(n_inputs = 4) seed =
  let rng = Rng.create seed in
  let b = B.create (Printf.sprintf "random%d" seed) in
  let inputs = Array.init n_inputs (fun i -> B.input b (Printf.sprintf "in%d" i)) in
  let results = ref [] in
  let operand () =
    match (Rng.int rng 10, !results) with
    | r, (_ :: _ as made) when r < 6 -> List.nth made (Rng.int rng (List.length made))
    | r, _ when r < 9 -> inputs.(Rng.int rng n_inputs)
    | _, _ -> B.const (Rng.int rng 256)
  in
  for _ = 1 to n_ops do
    let lhs = operand () and rhs = operand () in
    let op = if Rng.int rng 3 = 0 then B.mul b lhs rhs else B.add b lhs rhs in
    results := op :: !results
  done;
  B.finish b

let random_netlist rng ~n_inputs ~n_keys ~n_gates =
  let module N = Rb_netlist.Netlist in
  let b = N.Builder.create ~n_inputs ~n_keys in
  let nets = ref [] in
  for i = 0 to n_inputs - 1 do
    nets := N.Builder.input b i :: !nets
  done;
  for k = 0 to n_keys - 1 do
    nets := N.Builder.key b k :: !nets
  done;
  let pick () = List.nth !nets (Rng.int rng (List.length !nets)) in
  for _ = 1 to n_gates do
    let a = pick () and c = pick () and s = pick () in
    let g =
      match Rng.int rng 10 with
      | 0 -> N.And (a, c)
      | 1 -> N.Or (a, c)
      | 2 -> N.Xor (a, c)
      | 3 -> N.Nand (a, c)
      | 4 -> N.Nor (a, c)
      | 5 -> N.Xnor (a, c)
      | 6 -> N.Not a
      | 7 -> N.Buf a
      | 8 -> N.Mux (s, a, c)
      | _ -> N.Const (Rng.bool rng)
    in
    nets := N.Builder.gate b g :: !nets
  done;
  for _ = 1 to 1 + Rng.int rng 3 do
    N.Builder.output b (pick ())
  done;
  N.Builder.finish b

let eval_nets c ~inputs ~keys =
  let module N = Rb_netlist.Netlist in
  let n_inputs = N.n_inputs c and n_keys = N.n_keys c in
  let vals = Array.make (N.n_nets c) false in
  Array.blit inputs 0 vals 0 n_inputs;
  Array.blit keys 0 vals n_inputs n_keys;
  Array.iteri
    (fun i g ->
      let v = Array.get vals in
      let r =
        match g with
        | N.And (a, b) -> v a && v b
        | N.Or (a, b) -> v a || v b
        | N.Xor (a, b) -> v a <> v b
        | N.Nand (a, b) -> not (v a && v b)
        | N.Nor (a, b) -> not (v a || v b)
        | N.Xnor (a, b) -> v a = v b
        | N.Not a -> not (v a)
        | N.Buf a -> v a
        | N.Mux (s, a, b) -> if v s then v b else v a
        | N.Const k -> k
      in
      vals.(n_inputs + n_keys + i) <- r)
    (N.gates c);
  vals

let eval_outputs c ~inputs ~keys =
  let vals = eval_nets c ~inputs ~keys in
  Array.map (Array.get vals) (Rb_netlist.Netlist.outputs c)

let random_trace ?(n = 32) seed dfg =
  let rng = Rng.create seed in
  Rb_sim.Trace.generate dfg ~n ~f:(fun _ _ -> Rng.int rng 256)

let skewed_trace ?(n = 64) seed dfg =
  let rng = Rng.create seed in
  let palette = [| 0; 7; 64; 200 |] in
  Rb_sim.Trace.generate dfg ~n ~f:(fun _ _ ->
      if Rng.int rng 10 < 8 then Rng.pick rng palette else Rng.int rng 256)

let random_valid_binding seed schedule allocation =
  let rng = Rng.create seed in
  let dfg = Schedule.dfg schedule in
  let fu_of_op = Array.make (Dfg.op_count dfg) (-1) in
  let assign kind cycle =
    let ops = Array.of_list (Schedule.ops_in_cycle schedule kind cycle) in
    let fus = Array.of_list (Rb_hls.Allocation.fu_ids allocation kind) in
    Rng.shuffle rng fus;
    Array.iteri (fun i op -> fu_of_op.(op) <- fus.(i)) ops
  in
  for cycle = 0 to Schedule.n_cycles schedule - 1 do
    assign Dfg.Add cycle;
    assign Dfg.Mul cycle
  done;
  Rb_hls.Binding.make schedule allocation ~fu_of_op

(* Fig. 2A: OPA(a,b) and OPB(c,d) in clock 1; OPC and OPD consume OPA
   and OPB; OPE(g, OPB) in clock 2. The concrete wiring is irrelevant
   to the algorithms (only the schedule and K matter); we keep it
   acyclic and two-cycle. *)
let fig2_dfg () =
  let b = B.create "fig2" in
  let a = B.input b "a" and b_in = B.input b "b" in
  let c = B.input b "c" and d = B.input b "d" in
  let g = B.input b "g" in
  let opa = B.add ~label:"OPA" b a b_in in
  let opb = B.add ~label:"OPB" b c d in
  let opc = B.add ~label:"OPC" b opa opb in
  let opd = B.add ~label:"OPD" b opa g in
  let ope = B.add ~label:"OPE" b opb g in
  List.iter (B.output b) [ opc; opd; ope ];
  B.finish b

let fig2_schedule dfg = Schedule.make dfg ~cycle_of:[| 0; 0; 1; 1; 1 |]

let minterm_x = Minterm.pack 1 1
let minterm_y = Minterm.pack 2 2

let fig2_kmatrix dfg =
  (* Occurrences from Fig. 2A: x: OPA=6 OPB=4 OPC=3 OPD=0 OPE=10;
                               y: OPA=9 OPB=3 OPC=7 OPD=0 OPE=8. *)
  Rb_sim.Kmatrix.of_counts dfg
    [
      (0, [ (minterm_x, 6); (minterm_y, 9) ]);
      (1, [ (minterm_x, 4); (minterm_y, 3) ]);
      (2, [ (minterm_x, 3); (minterm_y, 7) ]);
      (3, [ (minterm_x, 0); (minterm_y, 0) ]);
      (4, [ (minterm_x, 10); (minterm_y, 8) ]);
    ]

(* dune runtest runs with cwd = _build/default/test (where the golden/
   dep glob lands); dune exec from the root does not, so fall back to
   the copy next to the executable. *)
let golden_dir =
  if Sys.file_exists "golden" then "golden"
  else Filename.concat (Filename.dirname Sys.executable_name) "golden"

let read_golden name =
  let path = Filename.concat golden_dir name in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
