module Netlist = Rb_netlist.Netlist
module Circuits = Rb_netlist.Circuits
module Lock = Rb_netlist.Lock
module Ternary = Rb_analysis.Ternary
module Probability = Rb_analysis.Probability
module Keydep = Rb_analysis.Keydep
module Attacks = Rb_analysis.Attacks
module Report = Rb_analysis.Report
module Json = Rb_util.Json
module Rng = Rb_util.Rng
module Metrics = Rb_util.Metrics
module B = Netlist.Builder
module Testgen = Rb_testsupport.Testgen

let bits_of n width = Array.init width (fun i -> (n lsr i) land 1 = 1)

(* ------------------------------------------------------------- engine *)

(* Kleene three-valued gate semantics, written independently of
   [Ternary] ([None] is unknown), with the same same-net identities. *)
let kleene_gate g ~read =
  let and3 a b =
    match (a, b) with
    | Some false, _ | _, Some false -> Some false
    | Some true, Some true -> Some true
    | _ -> None
  in
  let not3 = Option.map not in
  let or3 a b = not3 (and3 (not3 a) (not3 b)) in
  let xor3 a b = match (a, b) with Some x, Some y -> Some (x <> y) | _ -> None in
  match g with
  | Netlist.Const k -> Some k
  | Netlist.Buf a -> read a
  | Netlist.Not a -> not3 (read a)
  | Netlist.And (a, b) -> and3 (read a) (read b)
  | Netlist.Nand (a, b) -> not3 (and3 (read a) (read b))
  | Netlist.Or (a, b) -> or3 (read a) (read b)
  | Netlist.Nor (a, b) -> not3 (or3 (read a) (read b))
  | Netlist.Xor (a, b) -> if a = b then Some false else xor3 (read a) (read b)
  | Netlist.Xnor (a, b) -> if a = b then Some true else not3 (xor3 (read a) (read b))
  | Netlist.Mux (s, a, b) -> (
      match read s with
      | Some false -> read a
      | Some true -> read b
      | None -> if read a = read b then read a else None)

(* One sweep in gate order is already the fixpoint: recomputing every
   gate from the final values of its operands changes nothing. *)
let qcheck_ternary_fixpoint =
  QCheck2.Test.make ~name:"ternary converges to a true fixpoint" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c =
        Testgen.random_netlist rng ~n_inputs:(1 + Rng.int rng 4)
          ~n_keys:(Rng.int rng 3) ~n_gates:(1 + Rng.int rng 30)
      in
      let r = Ternary.constants c in
      let value n =
        match r.(n) with Ternary.Known v -> Some v | Ternary.Unknown -> None
      in
      let base = Netlist.n_inputs c + Netlist.n_keys c in
      Array.for_all Fun.id
        (Array.mapi
           (fun i g -> kleene_gate g ~read:value = value (base + i))
           (Netlist.gates c))
      (* determinism: a second run lands on the same values *)
      && Ternary.constants c = r)

let qcheck_analyses_cover_every_net =
  QCheck2.Test.make ~name:"analyses give one value per net" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_keys = Rng.int rng 4 in
      let c =
        Testgen.random_netlist rng ~n_inputs:(1 + Rng.int rng 4) ~n_keys
          ~n_gates:(1 + Rng.int rng 40)
      in
      let n = Netlist.n_nets c in
      let t = Ternary.constants c in
      let p = Probability.estimate c in
      let distance = Netlist.output_cone c in
      let k = Keydep.summarize ~distance c in
      Array.length t = n
      && Array.length p = n
      && Array.length distance = n
      && Array.for_all (fun x -> x >= 0.0 && x <= 1.0) p
      && Array.for_all (fun d -> d >= -1) distance
      && List.map (fun (s : Keydep.summary) -> s.Keydep.key_bit) k
         = List.init n_keys Fun.id)

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
        Testgen.random_netlist rng ~n_inputs ~n_keys ~n_gates:(1 + Rng.int rng 25)
      in
      let key =
        Array.init n_keys (fun _ ->
            match Rng.int rng 3 with
            | 0 -> Ternary.Known (Rng.bool rng)
            | _ -> Ternary.Unknown)
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
              | Ternary.Known p -> if p <> keys.(b) then consistent := false
              | Ternary.Unknown -> ())
            key;
          if !consistent then begin
            let vals = Testgen.eval_nets c ~inputs:(bits_of i n_inputs) ~keys in
            Array.iteri
              (fun net v ->
                match consts.(net) with
                | Ternary.Known p -> if p <> v then ok := false
                | Ternary.Unknown -> ())
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
  Alcotest.(check bool) "x xor x = 0" true (consts.(xx) = Ternary.Known false);
  Alcotest.(check bool) "k xnor k = 1" true (consts.(xnx) = Ternary.Known true);
  Alcotest.(check bool) "absorption" true
    (consts.(absorbed) = Ternary.Known false);
  Alcotest.(check bool) "mux with known select stays free" true
    (consts.(m) = Ternary.Unknown)

let test_ternary_partial_key () =
  let b = B.create ~n_inputs:1 ~n_keys:2 in
  let k0 = B.key b 0 and k1 = B.key b 1 in
  let kk = B.xor_ b k0 k1 in
  B.output b (B.xor_ b (B.input b 0) kk);
  let c = B.finish b in
  let free = Ternary.constants c in
  Alcotest.(check bool) "k0 xor k1 free" true (free.(kk) = Ternary.Unknown);
  let pinned =
    Ternary.constants ~key:[| Ternary.Known true; Ternary.Known true |] c
  in
  Alcotest.(check bool) "pinned: k0 xor k1 = 0" true
    (pinned.(kk) = Ternary.Known false);
  let half = Ternary.constants ~key:[| Ternary.Known true; Ternary.Unknown |] c in
  Alcotest.(check bool) "half-pinned stays free" true
    (half.(kk) = Ternary.Unknown)

let test_live_nets_mux_select () =
  let b = B.create ~n_inputs:2 ~n_keys:0 in
  let x = B.input b 0 and y = B.input b 1 in
  let sel = B.const b true in
  let m = B.mux b ~sel ~a:x ~b:y in
  B.output b m;
  let c = B.finish b in
  let live = Ternary.live_nets c (Ternary.constants c) in
  Alcotest.(check bool) "selected branch live" true live.(y);
  Alcotest.(check bool) "unselected branch dead" false live.(x);
  (* A constant output is not live, and neither is its fanin. *)
  let b = B.create ~n_inputs:1 ~n_keys:0 in
  let x = B.input b 0 in
  let out = B.and_ b x (B.const b false) in
  B.output b out;
  let c = B.finish b in
  let live = Ternary.live_nets c (Ternary.constants c) in
  Alcotest.(check bool) "constant output not live" false live.(out);
  Alcotest.(check bool) "its input not live" false live.(x)

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
        let vals = Testgen.eval_nets c ~inputs:(bits_of i n_inputs) ~keys:[||] in
        if vals.(root) then incr count
      done;
      let exact = float_of_int !count /. float_of_int (1 lsl n_inputs) in
      Float.abs (est -. exact) < 1e-6)

(* ------------------------------------------------------------- keydep *)

let test_keydep_rll () =
  let rng = Rng.create 7 in
  let locked = Lock.xor_random ~rng ~key_bits:4 (Circuits.adder ~width:4) in
  let c = locked.Lock.circuit in
  let summaries = Keydep.summarize ~distance:(Netlist.output_cone c) c in
  Alcotest.(check int) "one summary per key" 4 (List.length summaries);
  List.iteri
    (fun i (s : Keydep.summary) ->
      Alcotest.(check int) "ascending key bits" i s.Keydep.key_bit;
      Alcotest.(check bool)
        (Printf.sprintf "key %d observable" i)
        true
        (s.Keydep.outputs_reached > 0 && s.Keydep.min_output_depth <> None);
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
  match Keydep.summarize ~distance:(Netlist.output_cone c) c with
  | [ s ] ->
      Alcotest.(check bool) "mute: no outputs" true
        (s.Keydep.outputs_reached = 0);
      Alcotest.(check bool) "mute: no depth" true
        (s.Keydep.min_output_depth = None);
      Alcotest.(check int) "mute: empty cone" 0 s.Keydep.cone_gates
  | l -> Alcotest.failf "expected 1 summary, got %d" (List.length l)

(* The bitset summary against the list-lattice rescan, on every lock
   scheme over random base circuits and on random netlists, at key
   widths on both sides of one and of two 63-bit bitset words. *)
let qcheck_keydep_summary_matches_rescan =
  QCheck2.Test.make ~name:"keydep summary = per-key rescan" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let width = 2 + Rng.int rng 3 in
      let base =
        if Rng.bool rng then Circuits.adder ~width else Circuits.multiplier ~width
      in
      let space = 1 lsl (2 * width) in
      let wide = (if Rng.bool rng then 62 else 126) + Rng.int rng 3 in
      let c =
        match Rng.int rng 8 with
        | 0 ->
            let key_bits = 1 + Rng.int rng (min 8 (Lock.max_xor_key_bits base)) in
            (Lock.xor_random ~rng ~key_bits base).Lock.circuit
        | 1 ->
            (Lock.point_function
               ~minterms:(List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng space))
               base)
              .Lock.circuit
        | 2 -> (Lock.anti_sat ~rng base).Lock.circuit
        | 3 ->
            (Lock.permutation_network ~rng ~layers:(1 + Rng.int rng 4) base).Lock.circuit
        | 4 ->
            Testgen.random_netlist rng ~n_inputs:(1 + Rng.int rng 4)
              ~n_keys:(Rng.int rng 6) ~n_gates:(1 + Rng.int rng 40)
        | 5 ->
            (Lock.xor_random ~rng ~key_bits:wide (Circuits.multiplier ~width:6))
              .Lock.circuit
        | 6 ->
            (* 3.5 key bits per layer on a 4-bit adder: 63, 67, 126 or 130 *)
            (Lock.permutation_network ~rng ~layers:(((2 * wide) + 6) / 7)
               (Circuits.adder ~width:4))
              .Lock.circuit
        | _ ->
            Testgen.random_netlist rng ~n_inputs:(1 + Rng.int rng 4) ~n_keys:wide
              ~n_gates:(1 + Rng.int rng 200)
      in
      Keydep.summarize ~distance:(Netlist.output_cone c) c = Keydep_ref.summarize c)

(* ------------------------------------------------------------ attacks *)

let const_prop c = Attacks.const_prop c (Attacks.facts c)

(* Each attack meters itself: a call counts one run under its own
   name and none under the other's, its inference and removal counters
   follow its result, and the result does not depend on metering. *)
let test_attack_metering () =
  let rng = Rng.create 9 in
  let c = (Lock.xor_random ~rng ~key_bits:6 (Circuits.adder ~width:4)).Lock.circuit in
  let value name = Metrics.counter_value (Metrics.counter ~scope:"attack" name) in
  let runs () = List.map (fun name -> value (name ^ "_runs")) [ "const-prop"; "removal" ] in
  let unmetered = const_prop c in
  let unmetered_removal = Attacks.removal c unmetered in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
      let before = runs () and inferred_before = value "const-prop_inferred" in
      let inferred = const_prop c in
      Alcotest.(check (list int)) "const-prop counted once"
        (List.map2 ( + ) before [ 1; 0 ]) (runs ());
      Alcotest.(check int) "const-prop inferences counted"
        (inferred_before + List.length inferred)
        (value "const-prop_inferred");
      Alcotest.(check bool) "const-prop equals the unmetered call" true
        (inferred = unmetered);
      let before = runs ()
      and inferred_before = value "removal_inferred"
      and removed_before = value "removal_gates_removed" in
      let ((_, gates_removed) as out) = Attacks.removal c inferred in
      Alcotest.(check (list int)) "removal counted once"
        (List.map2 ( + ) before [ 0; 1 ]) (runs ());
      Alcotest.(check int) "removal inferences counted"
        (inferred_before + List.length inferred)
        (value "removal_inferred");
      Alcotest.(check int) "removed gates counted"
        (removed_before + gates_removed)
        (value "removal_gates_removed");
      Alcotest.(check bool) "removal equals the unmetered call" true
        (out = unmetered_removal))

let test_const_prop_recovers_rll () =
  let rng = Rng.create 99 in
  let locked = Lock.xor_random ~rng ~key_bits:8 (Circuits.adder ~width:4) in
  let inferred = const_prop locked.Lock.circuit in
  (* acceptance floor: >= 25% of naive-XOR key bits recovered; the
     pass-through rule in fact gets all of them, with correct values *)
  Alcotest.(check bool) "at least 25% recovered" true
    (4 * List.length inferred >= 8);
  Alcotest.(check int) "all 8 recovered" 8 (List.length inferred);
  List.iter
    (fun (i : Attacks.inference) ->
      Alcotest.(check bool)
        (Printf.sprintf "bit %d correct" i.Attacks.bit)
        true
        (locked.Lock.correct_key.(i.Attacks.bit) = i.Attacks.value);
      Alcotest.(check string) "via pass-through" "pass-through" i.Attacks.via)
    inferred

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
      Alcotest.(check int)
        (label ^ ": nothing inferred")
        0
        (List.length (const_prop c)))
    cases

let test_const_prop_mute_and_strip () =
  (* key 0 unconnected (mute); key 1 cancelled by k xor k (strip) *)
  let b = B.create ~n_inputs:1 ~n_keys:2 in
  let x = B.input b 0 in
  let k1 = B.key b 1 in
  let kk = B.xor_ b k1 k1 in
  B.output b (B.or_ b x kk);
  let c = B.finish b in
  let inferred = const_prop c in
  let via bit =
    List.find_map
      (fun (i : Attacks.inference) ->
        if i.Attacks.bit = bit then Some i.Attacks.via else None)
      inferred
  in
  Alcotest.(check (option string)) "mute key" (Some "mute") (via 0);
  Alcotest.(check (option string)) "stripped key" (Some "strip") (via 1);
  Alcotest.(check bool) "classified mute, strip" true
    ((Attacks.facts c).Attacks.classes = [| Attacks.Mute; Attacks.Strip |])

let test_removal_preserves_function () =
  let rng = Rng.create 2024 in
  let locked = Lock.xor_random ~rng ~key_bits:6 (Circuits.adder ~width:3) in
  let c = locked.Lock.circuit in
  let inferred = const_prop c in
  let simplified, gates_removed = Attacks.removal c inferred in
  Alcotest.(check bool) "gates removed" true (gates_removed >= 6);
  Alcotest.(check int) "keys stripped" 6 (List.length inferred);
  (match
     Attacks.removal c [ { Attacks.bit = Netlist.n_keys c; value = true; via = "mute" } ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a key bit outside the key width must be rejected");
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
       (List.filter
          (fun (o : Keydep.summary) -> o.Keydep.min_output_depth = None)
          r.Report.observability))

(* One sweep per fact: probability and free-key constants once each,
   plus the pinned-key re-propagations of the pass-through validation
   (RLL only) and of removal. Key dependence is its own bitset sweep
   and does not count. *)
let test_sweeps_per_analysis () =
  let runs = Metrics.counter ~scope:"analysis" "fixpoint_runs" in
  let sweeps f =
    Metrics.set_enabled true;
    Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
        let before = Metrics.counter_value runs in
        ignore (f ());
        Metrics.counter_value runs - before)
  in
  let base = Circuits.adder ~width:4 in
  let rll = (Lock.xor_random ~rng:(Rng.create 17) ~key_bits:4 base).Lock.circuit in
  let pf = (Lock.point_function ~minterms:[ 0x21 ] base).Lock.circuit in
  Alcotest.(check int) "analyze RLL" 4
    (sweeps (fun () -> Report.analyze ~subject:"rll" rll));
  Alcotest.(check int) "analyze pf" 3 (sweeps (fun () -> Report.analyze ~subject:"pf" pf));
  Alcotest.(check int) "lint netlist rules" 2
    (sweeps (fun () -> Rb_lint.Netlist_rules.check rll))

let test_report_json_roundtrip () =
  let rng = Rng.create 17 in
  let locked = Lock.xor_random ~rng ~key_bits:4 (Circuits.adder ~width:3) in
  let r = Report.analyze ~subject:"fixture" locked.Lock.circuit in
  let json = Report.to_json r in
  (match Json.member "schema" json with
  | Some (Json.String s) -> Alcotest.(check string) "schema" "rb-analyze/3" s
  | _ -> Alcotest.fail "schema field missing");
  (match Json.member "inferable" json with
  | Some (Json.List l) ->
      Alcotest.(check int) "inferable length"
        (List.length r.Report.inferable)
        (List.length l)
  | _ -> Alcotest.fail "inferable field missing");
  (match Json.member "observability" json with
  | Some (Json.List l) ->
      Alcotest.(check (list (option int))) "outputs_reached counts"
        (List.map
           (fun (o : Keydep.summary) -> Some o.Keydep.outputs_reached)
           r.Report.observability)
        (List.map
           (fun o ->
             match Json.member "outputs_reached" o with
             | Some (Json.Int n) -> Some n
             | _ -> None)
           l)
  | _ -> Alcotest.fail "observability field missing");
  (* the rendered document parses back *)
  match Json.of_string (Json.to_string json) with
  | Ok parsed ->
      Alcotest.(check bool) "static_resilience survives round-trip" true
        (Json.member "static_resilience" parsed <> None)
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e

let () =
  Alcotest.run "rb_analysis"
    [
      ( "ternary",
        [
          Alcotest.test_case "identities" `Quick test_ternary_identities;
          Alcotest.test_case "partial keys" `Quick test_ternary_partial_key;
          Alcotest.test_case "mux liveness" `Quick test_live_nets_mux_select;
        ] );
      ( "probability",
        [
          Alcotest.test_case "fixtures" `Quick test_probability_fixtures;
        ] );
      ( "keydep",
        [
          Alcotest.test_case "rll observability" `Quick test_keydep_rll;
          Alcotest.test_case "mute key" `Quick test_keydep_mute_key;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "each attack meters itself" `Quick test_attack_metering;
          Alcotest.test_case "const-prop recovers RLL" `Quick
            test_const_prop_recovers_rll;
          Alcotest.test_case "const-prop abstains" `Quick
            test_const_prop_abstains_on_sat_hard_schemes;
          Alcotest.test_case "mute and strip rules" `Quick
            test_const_prop_mute_and_strip;
          Alcotest.test_case "removal preserves function" `Quick
            test_removal_preserves_function;
        ] );
      ( "report",
        [
          Alcotest.test_case "rll vs sat-hard" `Quick test_report_rll_vs_sat_hard;
          Alcotest.test_case "sweeps per analysis" `Quick test_sweeps_per_analysis;
          Alcotest.test_case "json round-trip" `Quick test_report_json_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_ternary_fixpoint;
            qcheck_analyses_cover_every_net;
            qcheck_keydep_summary_matches_rescan;
            qcheck_ternary_agrees_with_simulation;
            qcheck_probability_exact_on_trees;
          ] );
    ]
