module N = Rb_netlist.Netlist

let transfer gate ~read =
  match gate with
  | N.Const k -> if k then 1.0 else 0.0
  | N.Buf a -> read a
  | N.Not a -> 1.0 -. read a
  | N.And (a, b) -> if a = b then read a else read a *. read b
  | N.Nand (a, b) -> if a = b then 1.0 -. read a else 1.0 -. (read a *. read b)
  | N.Or (a, b) ->
      if a = b then read a
      else
        let pa = read a and pb = read b in
        pa +. pb -. (pa *. pb)
  | N.Nor (a, b) ->
      if a = b then 1.0 -. read a
      else
        let pa = read a and pb = read b in
        1.0 -. (pa +. pb -. (pa *. pb))
  | N.Xor (a, b) ->
      if a = b then 0.0
      else
        let pa = read a and pb = read b in
        pa +. pb -. (2.0 *. pa *. pb)
  | N.Xnor (a, b) ->
      if a = b then 1.0
      else
        let pa = read a and pb = read b in
        1.0 -. (pa +. pb -. (2.0 *. pa *. pb))
  | N.Mux (s, a, b) ->
      let ps = read s in
      if a = b then read a else ((1.0 -. ps) *. read a) +. (ps *. read b)

let estimate c = Engine.run ~init:(fun _ -> 0.5) ~transfer c

(* Matching ProbLock's leak criterion: a key gate that is almost
   always 0 (or 1) under random keys hands its key bit to a
   probability-profiling attacker. *)
let skew_lo = 0.05
let skew_hi = 0.95

let is_key_gate c gate =
  let n_inputs = N.n_inputs c in
  let key_net n = n >= n_inputs && n < n_inputs + N.n_keys c in
  List.exists key_net (N.gate_fanin gate)

let skewed_key_gates c =
  let probs = estimate c in
  let base = N.n_inputs c + N.n_keys c in
  let out = ref [] in
  Array.iteri
    (fun i g ->
      if is_key_gate c g then begin
        let p = probs.(base + i) in
        if p < skew_lo || p > skew_hi then out := (i, p) :: !out
      end)
    (N.gates c);
  List.rev !out
