module Netlist = Rb_netlist.Netlist
module Ternary = Rb_analysis.Ternary
module Probability = Rb_analysis.Probability
module Attacks = Rb_analysis.Attacks
module D = Diagnostic

let rule_dead = "NET-DEAD"
let rule_key_mute = "NET-KEY-MUTE"
let rule_key_strip = "NET-KEY-STRIP"
let rule_const_out = "NET-CONST-OUT"
let rule_key_skew = "NET-KEY-SKEW"

let check c =
  let n_inputs = Netlist.n_inputs c in
  let n_keys = Netlist.n_keys c in
  let base = n_inputs + n_keys in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let facts = Attacks.facts c in
  (* dead gates *)
  List.iter
    (fun i ->
      emit
        (D.warning ~rule:rule_dead (D.Gate i)
           (Printf.sprintf "gate drives net %d but feeds no output" (base + i))
           ~hint:"remove the gate or route it into an output cone"))
    facts.Attacks.dead;
  (* key influence *)
  for k = 0 to n_keys - 1 do
    match facts.Attacks.classes.(k) with
    | Attacks.Mute ->
      emit
        (D.error ~rule:rule_key_mute (D.Key_input k)
           "key input has no structural path to any output"
           ~hint:"an unconnected key bit adds no security; wire the key gate into \
                  live logic or drop the bit")
    | Attacks.Strip ->
      emit
        (D.error ~rule:rule_key_strip (D.Key_input k)
           "every path from this key input to an output is cut by constant folding"
           ~hint:"the lock is removable by constant propagation (e.g. k XOR k); \
                  re-insert the key gate on non-redundant logic")
    | Attacks.Live -> ()
  done;
  (* key gates with heavily skewed output probability *)
  List.iter
    (fun (gate, p) ->
      emit
        (D.warning ~rule:rule_key_skew (D.Gate gate)
           (Printf.sprintf
              "key gate output has estimated signal probability %.3f under random \
               keys (outside [%.2f, %.2f])"
              p Probability.skew_lo Probability.skew_hi)
           ~hint:"a near-constant key gate leaks its key bit to \
                  probability-profiling attacks; balance the gate (XOR-style \
                  insertion keeps p at 1/2)"))
    (Probability.skewed_key_gates c);
  (* outputs driven by keys or constants *)
  Array.iteri
    (fun pos net ->
      if net >= n_inputs && net < base then
        emit
          (D.error ~rule:rule_const_out (D.Output pos)
             (Printf.sprintf "output is key input %d itself — the key bit is observable"
                (net - n_inputs)))
      else
        match facts.Attacks.free.(net) with
        | Ternary.Known v ->
          emit
            (D.warning ~rule:rule_const_out (D.Output pos)
               (Printf.sprintf "output is statically constant %b" v))
        | Ternary.Unknown -> ())
    (Netlist.outputs c);
  List.rev !diags
