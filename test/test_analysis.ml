module Netlist = Rb_netlist.Netlist
module Analysis = Rb_netlist.Analysis
module Circuits = Rb_netlist.Circuits
module Lock = Rb_netlist.Lock
module Engine = Rb_analysis.Engine
module Ternary = Rb_analysis.Ternary
module Probability = Rb_analysis.Probability
module Keydep = Rb_analysis.Keydep
module Cycles = Rb_analysis.Cycles
module Attacks = Rb_analysis.Attacks
module Report = Rb_analysis.Report
module Limits = Rb_util.Limits
module Faults = Rb_util.Faults
module Json = Rb_util.Json
module Rng = Rb_util.Rng
module Metrics = Rb_util.Metrics
module B = Netlist.Builder

(* Reference per-net evaluator for well-formed netlists: Netlist.eval
   only exposes outputs, but the analyses make claims about every net. *)
let eval_nets c ~inputs ~keys =
  let n_inputs = Netlist.n_inputs c and n_keys = Netlist.n_keys c in
  let vals = Array.make (Netlist.n_nets c) false in
  Array.blit inputs 0 vals 0 n_inputs;
  Array.blit keys 0 vals n_inputs n_keys;
  Array.iteri
    (fun i g ->
      let v = Array.get vals in
      let r =
        match g with
        | Netlist.And (a, b) -> v a && v b
        | Netlist.Or (a, b) -> v a || v b
        | Netlist.Xor (a, b) -> v a <> v b
        | Netlist.Nand (a, b) -> not (v a && v b)
        | Netlist.Nor (a, b) -> not (v a || v b)
        | Netlist.Xnor (a, b) -> v a = v b
        | Netlist.Not a -> not (v a)
        | Netlist.Buf a -> v a
        | Netlist.Mux (s, a, b) -> if v s then v b else v a
        | Netlist.Const k -> k
      in
      vals.(n_inputs + n_keys + i) <- r)
    (Netlist.gates c);
  vals

let bits_of n width = Array.init width (fun i -> (n lsr i) land 1 = 1)

(* Random well-formed circuit over the full gate alphabet. *)
let random_circuit rng ~n_inputs ~n_keys ~n_gates =
  let b = B.create ~n_inputs ~n_keys in
  let nets = ref [] in
  for i = 0 to n_inputs - 1 do
    nets := B.input b i :: !nets
  done;
  for k = 0 to n_keys - 1 do
    nets := B.key b k :: !nets
  done;
  let pick () = List.nth !nets (Rng.int rng (List.length !nets)) in
  for _ = 1 to n_gates do
    let a = pick () and c = pick () and s = pick () in
    let g =
      match Rng.int rng 10 with
      | 0 -> Netlist.And (a, c)
      | 1 -> Netlist.Or (a, c)
      | 2 -> Netlist.Xor (a, c)
      | 3 -> Netlist.Nand (a, c)
      | 4 -> Netlist.Nor (a, c)
      | 5 -> Netlist.Xnor (a, c)
      | 6 -> Netlist.Not a
      | 7 -> Netlist.Buf a
      | 8 -> Netlist.Mux (s, a, c)
      | _ -> Netlist.Const (Rng.bool rng)
    in
    nets := B.gate b g :: !nets
  done;
  for _ = 1 to 1 + Rng.int rng 3 do
    B.output b (pick ())
  done;
  B.finish b

(* Random possibly-cyclic netlist: operands are drawn from the whole
   net range (forward references included) and occasionally outside it. *)
let random_unchecked rng ~n_inputs ~n_keys ~n_gates =
  let n_nets = n_inputs + n_keys + n_gates in
  let operand () =
    match Rng.int rng 12 with
    | 0 -> -1 - Rng.int rng 3
    | 1 -> n_nets + Rng.int rng 3
    | _ -> Rng.int rng n_nets
  in
  let gates =
    Array.init n_gates (fun _ ->
        let a = operand () and c = operand () and s = operand () in
        match Rng.int rng 10 with
        | 0 -> Netlist.And (a, c)
        | 1 -> Netlist.Or (a, c)
        | 2 -> Netlist.Xor (a, c)
        | 3 -> Netlist.Nand (a, c)
        | 4 -> Netlist.Nor (a, c)
        | 5 -> Netlist.Xnor (a, c)
        | 6 -> Netlist.Not a
        | 7 -> Netlist.Buf a
        | 8 -> Netlist.Mux (s, a, c)
        | _ -> Netlist.Const (Rng.bool rng))
  in
  let outputs = Array.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n_nets) in
  Netlist.unchecked ~n_inputs ~n_keys ~gates ~outputs

(* ------------------------------------------------------------- engine *)

let test_output_cone () =
  let b = B.create ~n_inputs:2 ~n_keys:0 in
  let x = B.input b 0 and y = B.input b 1 in
  let live = B.and_ b x y in
  let dead = B.or_ b x y in
  B.output b live;
  let c = B.finish b in
  let cone = Engine.output_cone c in
  Alcotest.(check bool) "live gate in cone" true cone.(live);
  Alcotest.(check bool) "dead gate out of cone" false cone.(dead);
  Alcotest.(check bool) "inputs in cone" true (cone.(x) && cone.(y));
  (* cycles and out-of-range operands terminate *)
  let cyc =
    Netlist.unchecked ~n_inputs:1 ~n_keys:0
      ~gates:[| Netlist.And (2, 0); Netlist.Or (1, 9) |]
      ~outputs:[| 2 |]
  in
  let cone = Engine.output_cone cyc in
  Alcotest.(check bool) "both cycle nets in cone" true (cone.(1) && cone.(2))

let test_engine_budget_and_cancel () =
  let c = Circuits.adder ~width:3 in
  let free = Ternary.run ~limit:Limits.none c in
  Alcotest.(check bool) "unlimited run converges" true free.Engine.converged;
  (* a zero pass budget stops deterministically under Conflicts *)
  let r = Probability.run ~max_passes:0 c in
  Alcotest.(check bool) "budget stop" true
    (r.Engine.stopped = Some Limits.Conflicts);
  Alcotest.(check bool) "budget run not converged" false r.Engine.converged;
  Alcotest.(check int) "budget: no passes" 0 r.Engine.passes;
  (* a raised cancel flag stops before the first sweep *)
  let flag = Limits.new_cancel () in
  Limits.cancel flag;
  let r = Ternary.run ~limit:(Limits.make ~cancel:flag ()) c in
  Alcotest.(check bool) "cancelled" true
    (r.Engine.stopped = Some Limits.Cancelled);
  Alcotest.(check bool) "cancelled run not converged" false r.Engine.converged;
  Alcotest.(check int) "cancelled: no passes" 0 r.Engine.passes

(* A run that reports convergence really is at a fixpoint: replaying
   the transfer function over the final values changes nothing. *)
let ternary_is_fixpoint c (r : Ternary.v Engine.outcome) =
  let gates = Netlist.gates c in
  let n_nets = Netlist.n_nets c in
  let base = n_nets - Array.length gates in
  let read n =
    if n < 0 || n >= n_nets then Ternary.Domain.bogus else r.Engine.values.(n)
  in
  let ok = ref true in
  Array.iteri
    (fun i g ->
      let driven = base + i in
      let old = r.Engine.values.(driven) in
      let fresh = Ternary.Domain.transfer ~driven g ~read in
      if not (Ternary.Domain.equal old (Ternary.Domain.join old fresh)) then
        ok := false)
    gates;
  !ok

let qcheck_ternary_fixpoint =
  QCheck2.Test.make ~name:"ternary converges to a true fixpoint" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c =
        random_unchecked rng ~n_inputs:(1 + Rng.int rng 4)
          ~n_keys:(Rng.int rng 3) ~n_gates:(1 + Rng.int rng 30)
      in
      let r = Ternary.run c in
      if not r.Engine.converged then r.Engine.stopped <> None
      else
        ternary_is_fixpoint c r
        && r.Engine.passes <= Netlist.n_gates c + 2
        (* determinism: a second run lands on the same values *)
        && (Ternary.run c).Engine.values = r.Engine.values)

let qcheck_unchecked_termination =
  QCheck2.Test.make ~name:"all analyses terminate on cyclic netlists" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c =
        random_unchecked rng ~n_inputs:(1 + Rng.int rng 4)
          ~n_keys:(Rng.int rng 4) ~n_gates:(1 + Rng.int rng 40)
      in
      let n = Netlist.n_nets c in
      let t = Ternary.run c in
      let k = Keydep.run c in
      let p = Probability.run c in
      let (_ : Cycles.t) = Cycles.find c in
      let (_ : bool array) = Engine.output_cone c in
      (* termination itself is the property; every run must either
         converge or carry an explicit stop reason *)
      Array.length t.Engine.values = n
      && Array.length k.Engine.values = n
      && Array.length p.Engine.values = n
      && List.for_all
           (fun (o : bool * Limits.reason option) ->
             fst o || snd o <> None)
           [
             (t.Engine.converged, t.Engine.stopped);
             (k.Engine.converged, k.Engine.stopped);
             (p.Engine.converged, p.Engine.stopped);
           ])

(* Soundness: every net the analysis calls Known agrees with exhaustive
   simulation under every key assignment consistent with the pins. *)
let qcheck_ternary_agrees_with_simulation =
  QCheck2.Test.make ~name:"constant prop agrees with exhaustive simulation"
    ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_inputs = 1 + Rng.int rng 5 in
      let n_keys = Rng.int rng 4 in
      let c =
        random_circuit rng ~n_inputs ~n_keys ~n_gates:(1 + Rng.int rng 25)
      in
      let key =
        Array.init n_keys (fun _ ->
            match Rng.int rng 3 with
            | 0 -> Analysis.Known (Rng.bool rng)
            | _ -> Analysis.Unknown)
      in
      let consts = Ternary.constants ~key c in
      let ok = ref true in
      for i = 0 to (1 lsl n_inputs) - 1 do
        for kv = 0 to (1 lsl n_keys) - 1 do
          let keys = bits_of kv n_keys in
          let consistent = ref true in
          Array.iteri
            (fun b pin ->
              match pin with
              | Analysis.Known p -> if p <> keys.(b) then consistent := false
              | Analysis.Unknown -> ())
            key;
          if !consistent then begin
            let vals = eval_nets c ~inputs:(bits_of i n_inputs) ~keys in
            Array.iteri
              (fun net v ->
                match consts.(net) with
                | Analysis.Known p -> if p <> v then ok := false
                | Analysis.Unknown -> ())
              vals
          end
        done
      done;
      !ok)

(* ------------------------------------------------------------ ternary *)

let test_ternary_identities () =
  let b = B.create ~n_inputs:2 ~n_keys:1 in
  let x = B.input b 0 and k = B.key b 0 in
  let xx = B.xor_ b x x in
  (* Known false *)
  let xnx = B.xnor_ b k k in
  (* Known true *)
  let absorbed = B.and_ b xx (B.input b 1) in
  (* false AND y *)
  let m = B.mux b ~sel:xnx ~a:x ~b:k in
  (* select true picks the free key *)
  B.output b absorbed;
  B.output b m;
  let c = B.finish b in
  let consts = Ternary.constants c in
  Alcotest.(check bool) "x xor x = 0" true (consts.(xx) = Analysis.Known false);
  Alcotest.(check bool) "k xnor k = 1" true (consts.(xnx) = Analysis.Known true);
  Alcotest.(check bool) "absorption" true
    (consts.(absorbed) = Analysis.Known false);
  Alcotest.(check bool) "mux with known select stays free" true
    (consts.(m) = Analysis.Unknown)

let test_ternary_partial_key () =
  let b = B.create ~n_inputs:1 ~n_keys:2 in
  let k0 = B.key b 0 and k1 = B.key b 1 in
  let kk = B.xor_ b k0 k1 in
  B.output b (B.xor_ b (B.input b 0) kk);
  let c = B.finish b in
  let free = Ternary.constants c in
  Alcotest.(check bool) "k0 xor k1 free" true (free.(kk) = Analysis.Unknown);
  let pinned =
    Ternary.constants ~key:[| Analysis.Known true; Analysis.Known true |] c
  in
  Alcotest.(check bool) "pinned: k0 xor k1 = 0" true
    (pinned.(kk) = Analysis.Known false);
  let half = Ternary.constants ~key:[| Analysis.Known true; Analysis.Unknown |] c in
  Alcotest.(check bool) "half-pinned stays free" true
    (half.(kk) = Analysis.Unknown)

let test_live_nets_mux_select () =
  let b = B.create ~n_inputs:2 ~n_keys:0 in
  let x = B.input b 0 and y = B.input b 1 in
  let sel = B.const b true in
  let m = B.mux b ~sel ~a:x ~b:y in
  B.output b m;
  let c = B.finish b in
  let live = Ternary.live_nets c in
  Alcotest.(check bool) "selected branch live" true live.(y);
  Alcotest.(check bool) "unselected branch dead" false live.(x)

(* -------------------------------------------------------- probability *)

let test_probability_fixtures () =
  let b = B.create ~n_inputs:2 ~n_keys:5 in
  let x = B.input b 0 in
  let bal = B.xor_ b x (B.key b 0) in
  let chain = B.and_reduce b (List.init 5 (B.key b)) in
  let zero = B.xor_ b x x in
  B.output b bal;
  B.output b chain;
  B.output b zero;
  let c = B.finish b in
  let p = Probability.estimate c in
  Alcotest.(check (float 1e-9)) "xor balanced" 0.5 p.(bal);
  Alcotest.(check (float 1e-9)) "5-key AND chain" (1.0 /. 32.0) p.(chain);
  Alcotest.(check (float 1e-9)) "x xor x" 0.0 p.(zero);
  let skewed = Probability.skewed_key_gates c in
  Alcotest.(check bool) "AND reduction ends skewed" true (skewed <> []);
  Alcotest.(check bool) "all skewed are low" true
    (List.for_all (fun (_, p) -> p < 0.05) skewed)

(* Exact on trees: every net has fan-out at most one, so the
   independence assumption holds and the estimate must match the true
   probability from exhaustive enumeration. *)
let qcheck_probability_exact_on_trees =
  QCheck2.Test.make ~name:"probability exact on fanout-free circuits" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_inputs = 2 + Rng.int rng 7 in
      let b = B.create ~n_inputs ~n_keys:0 in
      (* combine until one net is left; each net used exactly once *)
      let nets = ref (List.init n_inputs (B.input b)) in
      let take () =
        let i = Rng.int rng (List.length !nets) in
        let n = List.nth !nets i in
        nets := List.filteri (fun j _ -> j <> i) !nets;
        n
      in
      while List.length !nets > 1 do
        let x = take () and y = take () in
        let g =
          match Rng.int rng 7 with
          | 0 -> Netlist.And (x, y)
          | 1 -> Netlist.Or (x, y)
          | 2 -> Netlist.Xor (x, y)
          | 3 -> Netlist.Nand (x, y)
          | 4 -> Netlist.Nor (x, y)
          | 5 -> Netlist.Xnor (x, y)
          | _ -> Netlist.Not x
        in
        (match g with Netlist.Not _ -> nets := y :: !nets | _ -> ());
        nets := B.gate b g :: !nets
      done;
      let root = List.hd !nets in
      B.output b root;
      let c = B.finish b in
      let est = (Probability.estimate c).(root) in
      let count = ref 0 in
      for i = 0 to (1 lsl n_inputs) - 1 do
        let vals = eval_nets c ~inputs:(bits_of i n_inputs) ~keys:[||] in
        if vals.(root) then incr count
      done;
      let exact = float_of_int !count /. float_of_int (1 lsl n_inputs) in
      Float.abs (est -. exact) < 1e-6)

let test_probability_cyclic_terminates () =
  (* inverter loop: no boolean fixpoint exists; the damped estimate
     must still settle within the pass budget *)
  let c =
    Netlist.unchecked ~n_inputs:1 ~n_keys:0
      ~gates:[| Netlist.Not 2; Netlist.Not 1 |]
      ~outputs:[| 1 |]
  in
  let r = Probability.run c in
  Alcotest.(check bool) "converged" true r.Engine.converged;
  Alcotest.(check (float 1e-3)) "settles at 1/2" 0.5 r.Engine.values.(1)

(* ------------------------------------------------------------- keydep *)

let test_keydep_rll () =
  let rng = Rng.create 7 in
  let locked = Lock.xor_random ~rng ~key_bits:4 (Circuits.adder ~width:4) in
  let summaries = Keydep.summarize locked.Lock.circuit in
  Alcotest.(check int) "one summary per key" 4 (List.length summaries);
  List.iteri
    (fun i (s : Keydep.summary) ->
      Alcotest.(check int) "ascending key bits" i s.Keydep.key_bit;
      Alcotest.(check bool)
        (Printf.sprintf "key %d observable" i)
        true
        (s.Keydep.outputs_reached <> [] && s.Keydep.min_output_depth <> None);
      Alcotest.(check bool)
        (Printf.sprintf "key %d depth positive" i)
        true
        (match s.Keydep.min_output_depth with Some d -> d >= 1 | None -> false);
      Alcotest.(check bool)
        (Printf.sprintf "key %d cone nonempty" i)
        true (s.Keydep.cone_gates >= 1))
    summaries

let test_keydep_mute_key () =
  let b = B.create ~n_inputs:1 ~n_keys:1 in
  B.output b (B.not_ b (B.input b 0));
  let c = B.finish b in
  match Keydep.summarize c with
  | [ s ] ->
      Alcotest.(check bool) "mute: no outputs" true
        (s.Keydep.outputs_reached = []);
      Alcotest.(check bool) "mute: no depth" true
        (s.Keydep.min_output_depth = None);
      Alcotest.(check int) "mute: empty cone" 0 s.Keydep.cone_gates
  | l -> Alcotest.failf "expected 1 summary, got %d" (List.length l)

(* ------------------------------------------------------------- cycles *)

let test_cycles () =
  Alcotest.(check int) "builder circuits acyclic" 0
    (Cycles.count (Cycles.find (Circuits.multiplier ~width:3)));
  (* two gates reading each other (1 input + 1 key, so base = 2) *)
  let c =
    Netlist.unchecked ~n_inputs:1 ~n_keys:1
      ~gates:[| Netlist.And (3, 0); Netlist.Or (2, 1) |]
      ~outputs:[| 3 |]
  in
  let t = Cycles.find c in
  Alcotest.(check int) "one SCC" 1 (Cycles.count t);
  Alcotest.(check (list (list int))) "SCC members" [ [ 2; 3 ] ] t.Cycles.sccs;
  Alcotest.(check bool) "cyclic flags" true
    (t.Cycles.cyclic.(2) && t.Cycles.cyclic.(3));
  Alcotest.(check bool) "inputs not cyclic" false t.Cycles.cyclic.(0);
  let c =
    Netlist.unchecked ~n_inputs:1 ~n_keys:0 ~gates:[| Netlist.Buf 1 |]
      ~outputs:[| 1 |]
  in
  Alcotest.(check int) "self loop" 1 (Cycles.count (Cycles.find c))

(* ------------------------------------------------------------ attacks *)

(* [Attacks.run] gives the direct call's outcome and counts one run
   under the attack's own name. *)
let test_run_matches_direct () =
  let rng = Rng.create 9 in
  let c = (Lock.xor_random ~rng ~key_bits:6 (Circuits.adder ~width:4)).Lock.circuit in
  let runs () =
    List.map
      (fun name -> Metrics.counter_value (Metrics.counter ~scope:"attack" (name ^ "_runs")))
      [ "const-prop"; "removal" ]
  in
  List.iter
    (fun (kind, name, delta, direct) ->
      Metrics.set_enabled true;
      Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
          let before = runs () in
          let out = Attacks.run kind c in
          Alcotest.(check (list int)) (name ^ " counted once")
            (List.map2 ( + ) before delta) (runs ());
          Alcotest.(check string) "outcome names the attack" name out.Attacks.attack;
          Alcotest.(check bool) (name ^ " equals the direct call") true (out = direct c)))
    [
      (Attacks.Const_prop, "const-prop", [ 1; 0 ], fun c -> Attacks.const_prop c);
      (Attacks.Removal, "removal", [ 0; 1 ], fun c -> Attacks.removal c);
    ]

let test_const_prop_recovers_rll () =
  let rng = Rng.create 99 in
  let locked = Lock.xor_random ~rng ~key_bits:8 (Circuits.adder ~width:4) in
  let out = Attacks.const_prop locked.Lock.circuit in
  Alcotest.(check bool) "not stopped" true (out.Attacks.stopped = None);
  (* acceptance floor: >= 25% of naive-XOR key bits recovered; the
     pass-through rule in fact gets all of them, with correct values *)
  Alcotest.(check bool) "at least 25% recovered" true
    (4 * List.length out.Attacks.inferred >= 8);
  Alcotest.(check int) "all 8 recovered" 8 (List.length out.Attacks.inferred);
  List.iter
    (fun (i : Attacks.inference) ->
      Alcotest.(check bool)
        (Printf.sprintf "bit %d correct" i.Attacks.bit)
        true
        (locked.Lock.correct_key.(i.Attacks.bit) = i.Attacks.value);
      Alcotest.(check string) "via pass-through" "pass-through" i.Attacks.via)
    out.Attacks.inferred

let test_const_prop_abstains_on_sat_hard_schemes () =
  let base = Circuits.adder ~width:4 in
  let cases =
    [
      ("pf", (Lock.point_function ~minterms:[ 0x42; 0x17 ] base).Lock.circuit);
      ("anti-sat", (Lock.anti_sat ~rng:(Rng.create 3) base).Lock.circuit);
      ( "permnet",
        (Lock.permutation_network ~rng:(Rng.create 3) ~layers:3 base)
          .Lock.circuit );
    ]
  in
  List.iter
    (fun (label, c) ->
      let out = Attacks.const_prop c in
      Alcotest.(check int)
        (label ^ ": nothing inferred")
        0
        (List.length out.Attacks.inferred))
    cases

let test_const_prop_mute_and_strip () =
  (* key 0 unconnected (mute); key 1 cancelled by k xor k (strip) *)
  let b = B.create ~n_inputs:1 ~n_keys:2 in
  let x = B.input b 0 in
  let k1 = B.key b 1 in
  let kk = B.xor_ b k1 k1 in
  B.output b (B.or_ b x kk);
  let c = B.finish b in
  let out = Attacks.const_prop c in
  let via bit =
    List.find_map
      (fun (i : Attacks.inference) ->
        if i.Attacks.bit = bit then Some i.Attacks.via else None)
      out.Attacks.inferred
  in
  Alcotest.(check (option string)) "mute key" (Some "mute") (via 0);
  Alcotest.(check (option string)) "stripped key" (Some "strip") (via 1)

let test_removal_preserves_function () =
  let rng = Rng.create 2024 in
  let locked = Lock.xor_random ~rng ~key_bits:6 (Circuits.adder ~width:3) in
  let c = locked.Lock.circuit in
  let out = Attacks.removal c in
  let simplified =
    match out.Attacks.simplified with
    | Some s -> s
    | None -> Alcotest.fail "removal must rebuild a netlist"
  in
  Alcotest.(check bool) "gates removed" true (out.Attacks.gates_removed >= 6);
  Alcotest.(check int) "keys stripped" 6 out.Attacks.keys_stripped;
  Alcotest.(check int) "input width preserved" (Netlist.n_inputs c)
    (Netlist.n_inputs simplified);
  Alcotest.(check int) "key width preserved" (Netlist.n_keys c)
    (Netlist.n_keys simplified);
  let correct = locked.Lock.correct_key in
  let zeros = Array.map (fun _ -> false) correct in
  for i = 0 to (1 lsl Netlist.n_inputs c) - 1 do
    let inputs = bits_of i (Netlist.n_inputs c) in
    let reference = Netlist.eval c ~inputs ~keys:correct in
    Alcotest.(check (array bool))
      (Printf.sprintf "input %d preserved" i)
      reference
      (Netlist.eval simplified ~inputs ~keys:correct);
    (* the stripped circuit no longer listens to the key at all *)
    Alcotest.(check (array bool))
      (Printf.sprintf "input %d key-independent" i)
      reference
      (Netlist.eval simplified ~inputs ~keys:zeros)
  done

let test_removal_refuses_ill_formed () =
  let c =
    Netlist.unchecked ~n_inputs:1 ~n_keys:1
      ~gates:[| Netlist.And (3, 0); Netlist.Or (2, 1) |]
      ~outputs:[| 3 |]
  in
  let rebuilt, removed = Attacks.strip c ~key:[ (0, true) ] in
  Alcotest.(check int) "no gates removed" 0 removed;
  Alcotest.(check int) "same gate count" (Netlist.n_gates c)
    (Netlist.n_gates rebuilt)

(* --------------------------------------------- limits & fault injection *)

let test_attack_degrades_under_cancel () =
  let flag = Limits.new_cancel () in
  Limits.cancel flag;
  let limit = Limits.make ~cancel:flag () in
  let rng = Rng.create 5 in
  let locked = Lock.xor_random ~rng ~key_bits:4 (Circuits.adder ~width:3) in
  let out = Attacks.run ~limit Attacks.Const_prop locked.Lock.circuit in
  Alcotest.(check bool) "stopped with reason" true
    (out.Attacks.stopped = Some Limits.Cancelled);
  Alcotest.(check int) "no inferences claimed" 0
    (List.length out.Attacks.inferred)

let test_fault_injection_degrades () =
  let rng = Rng.create 5 in
  let locked = Lock.xor_random ~rng ~key_bits:4 (Circuits.adder ~width:3) in
  let c = locked.Lock.circuit in
  let fire_always sites = Some { Faults.seed = 11; rate_per_mille = 1000; sites } in
  Faults.with_config (fire_always [ "analysis/fixpoint" ]) (fun () ->
      let r = Ternary.run c in
      Alcotest.(check bool) "fixpoint stops as budget" true
        (r.Engine.stopped = Some Limits.Conflicts);
      Alcotest.(check bool) "not converged" false r.Engine.converged;
      let out = Attacks.run Attacks.Removal c in
      Alcotest.(check bool) "attack reports the stop" true
        (out.Attacks.stopped = Some Limits.Conflicts);
      Alcotest.(check int) "no inferences under faults" 0
        (List.length out.Attacks.inferred);
      Alcotest.(check bool) "no rebuilt netlist" true
        (out.Attacks.simplified = None);
      let report = Report.analyze ~subject:"faulted" c in
      Alcotest.(check bool) "report carries the stop" true
        (report.Report.stopped = Some Limits.Conflicts);
      Alcotest.(check int) "report claims nothing" 0
        (List.length report.Report.inferable));
  (* a config aimed at other sites leaves the analyses alone *)
  Faults.with_config (fire_always [ "pool/task" ]) (fun () ->
      let r = Ternary.run c in
      Alcotest.(check bool) "other sites do not fire here" true
        r.Engine.converged)

(* ------------------------------------------------------------- report *)

let test_report_rll_vs_sat_hard () =
  let rng = Rng.create 17 in
  let base = Circuits.adder ~width:4 in
  let rll = Lock.xor_random ~rng ~key_bits:4 base in
  let r = Report.analyze ~subject:"rll" rll.Lock.circuit in
  Alcotest.(check bool) "rll leaks" true (List.length r.Report.inferable >= 1);
  Alcotest.(check (float 1e-9)) "rll resilience 0" 0.0 r.Report.static_resilience;
  Alcotest.(check bool) "rll strips" true (r.Report.gates_removed >= 4);
  let pf = Lock.point_function ~minterms:[ 0x21 ] base in
  let r = Report.analyze ~subject:"pf" pf.Lock.circuit in
  Alcotest.(check int) "pf leaks nothing" 0 (List.length r.Report.inferable);
  Alcotest.(check (float 1e-9)) "pf resilience 1" 1.0 r.Report.static_resilience;
  Alcotest.(check int) "every pf key observable" 0
    (List.length
       (List.filter (fun o -> o.Report.min_depth = None) r.Report.observability))

let test_report_json_roundtrip () =
  let rng = Rng.create 17 in
  let locked = Lock.xor_random ~rng ~key_bits:4 (Circuits.adder ~width:3) in
  let r = Report.analyze ~subject:"fixture" locked.Lock.circuit in
  let json = Report.to_json r in
  (match Json.member "schema" json with
  | Some (Json.String s) -> Alcotest.(check string) "schema" "rb-analyze/1" s
  | _ -> Alcotest.fail "schema field missing");
  (match Json.member "inferable" json with
  | Some (Json.List l) ->
      Alcotest.(check int) "inferable length"
        (List.length r.Report.inferable)
        (List.length l)
  | _ -> Alcotest.fail "inferable field missing");
  (* the rendered document parses back *)
  match Json.of_string (Json.to_string json) with
  | Ok parsed ->
      Alcotest.(check bool) "static_resilience survives round-trip" true
        (Json.member "static_resilience" parsed <> None)
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e

let () =
  Alcotest.run "rb_analysis"
    [
      ( "engine",
        [
          Alcotest.test_case "output cone" `Quick test_output_cone;
          Alcotest.test_case "budget and cancel" `Quick
            test_engine_budget_and_cancel;
        ] );
      ( "ternary",
        [
          Alcotest.test_case "identities" `Quick test_ternary_identities;
          Alcotest.test_case "partial keys" `Quick test_ternary_partial_key;
          Alcotest.test_case "mux liveness" `Quick test_live_nets_mux_select;
        ] );
      ( "probability",
        [
          Alcotest.test_case "fixtures" `Quick test_probability_fixtures;
          Alcotest.test_case "cyclic damping" `Quick
            test_probability_cyclic_terminates;
        ] );
      ( "keydep",
        [
          Alcotest.test_case "rll observability" `Quick test_keydep_rll;
          Alcotest.test_case "mute key" `Quick test_keydep_mute_key;
        ] );
      ("cycles", [ Alcotest.test_case "scc extraction" `Quick test_cycles ]);
      ( "attacks",
        [
          Alcotest.test_case "run matches direct" `Quick test_run_matches_direct;
          Alcotest.test_case "const-prop recovers RLL" `Quick
            test_const_prop_recovers_rll;
          Alcotest.test_case "const-prop abstains" `Quick
            test_const_prop_abstains_on_sat_hard_schemes;
          Alcotest.test_case "mute and strip rules" `Quick
            test_const_prop_mute_and_strip;
          Alcotest.test_case "removal preserves function" `Quick
            test_removal_preserves_function;
          Alcotest.test_case "removal refuses ill-formed" `Quick
            test_removal_refuses_ill_formed;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "cancel" `Quick test_attack_degrades_under_cancel;
          Alcotest.test_case "fault injection" `Quick
            test_fault_injection_degrades;
        ] );
      ( "report",
        [
          Alcotest.test_case "rll vs sat-hard" `Quick test_report_rll_vs_sat_hard;
          Alcotest.test_case "json round-trip" `Quick test_report_json_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_ternary_fixpoint;
            qcheck_unchecked_termination;
            qcheck_ternary_agrees_with_simulation;
            qcheck_probability_exact_on_trees;
          ] );
    ]
