module N = Rb_netlist.Netlist
module Metrics = Rb_util.Metrics

type inference = { bit : int; value : bool; via : string }

(* ---------- constant-propagation key inference ---------- *)

let key_assignment c inferences =
  let key = Array.make (N.n_keys c) Ternary.Unknown in
  List.iter (fun { bit; value; _ } -> key.(bit) <- Ternary.Known value) inferences;
  key

type key_class = Mute | Strip | Live

type facts = {
  distance : int array;
  free : Ternary.const array;
  classes : key_class array;
  dead : int list;
}

let facts c =
  let distance = N.output_cone c in
  let free = Ternary.constants c in
  let live = Ternary.live_nets c free in
  let base = N.n_inputs c + N.n_keys c in
  {
    distance;
    free;
    classes =
      Array.init (N.n_keys c) (fun k ->
          let net = N.key_net c k in
          if distance.(net) < 0 then Mute else if not live.(net) then Strip else Live);
    dead = List.filter (fun i -> distance.(base + i) < 0) (List.init (N.n_gates c) Fun.id);
  }

(* The pass-through rule: a key bit consumed exclusively by XOR/XNOR
   gates pairing it with an internal gate net is an inline repair gate
   (the random-XOR/XNOR locking shape); the transparent polarity is
   the correct key. XORs against primary inputs or other key bits are
   comparator inputs (Anti-SAT, point functions) and prove nothing.
   Every consuming gate casts one vote per key bit it reads; a bit's
   candidate is the vote all its consumers agree on. One pass over the
   gates serves every key bit. *)
let pass_through_candidates c =
  let n_inputs = N.n_inputs c in
  let base = n_inputs + N.n_keys c in
  let first = Array.make (N.n_keys c) None in
  let agree = Array.make (N.n_keys c) true in
  let vote k v =
    match first.(k) with
    | None -> first.(k) <- Some v
    | Some f -> if f <> v then agree.(k) <- false
  in
  Array.iter
    (fun g ->
      List.iter
        (fun k_net ->
          if k_net >= n_inputs && k_net < base then
            vote (k_net - n_inputs)
              (match g with
              | N.Xor (a, b) | N.Xnor (a, b) ->
                  let other = if a = k_net then b else a in
                  if other < base then None
                  else Some (match g with N.Xnor _ -> true | _ -> false)
              | _ -> None))
        (N.gate_fanin g))
    (N.gates c);
  Array.mapi (fun k f -> if agree.(k) then Option.join f else None) first

(* Each attack reports under the "attack" scope: deterministic
   run/inference counters plus a segregated wall-clock timer. *)
let m_const_prop_runs = Metrics.counter ~scope:"attack" "const-prop_runs"
let m_const_prop_inferred = Metrics.counter ~scope:"attack" "const-prop_inferred"
let m_const_prop_wall = Metrics.timer ~scope:"attack" "const-prop_run"

let infer c { free; classes; _ } =
  let pass_through = pass_through_candidates c in
  let rule bit =
    match (classes.(bit), pass_through.(bit)) with
    | Mute, _ -> Some { bit; value = false; via = "mute" }
    | Strip, _ -> Some { bit; value = false; via = "strip" }
    | Live, Some value -> Some { bit; value; via = "pass-through" }
    | Live, None -> None
  in
  let guessed, sound =
    List.partition
      (fun i -> i.via = "pass-through")
      (List.filter_map rule (List.init (N.n_keys c) Fun.id))
  in
  (* Validation: re-propagate under the inferred assignment; if an
     output turns constant that was free under the unconstrained key,
     a pass-through guess collapsed real logic — drop the pass-through
     class and keep only the sound rules. *)
  if guessed = [] then sound
  else
    let pinned = Ternary.constants ~key:(key_assignment c (sound @ guessed)) c in
    let became_const =
      Array.exists
        (fun net -> pinned.(net) <> Ternary.Unknown && free.(net) = Ternary.Unknown)
        (N.outputs c)
    in
    if became_const then sound else sound @ guessed

let const_prop c facts =
  Metrics.incr m_const_prop_runs;
  let inferred = Metrics.time m_const_prop_wall (fun () -> infer c facts) in
  Metrics.add m_const_prop_inferred (List.length inferred);
  inferred

(* ---------- structural removal ---------- *)

let m_removal_runs = Metrics.counter ~scope:"attack" "removal_runs"
let m_removal_inferred = Metrics.counter ~scope:"attack" "removal_inferred"
let m_removal_gates_removed = Metrics.counter ~scope:"attack" "removal_gates_removed"
let m_removal_wall = Metrics.timer ~scope:"attack" "removal_run"

let rebuild c inferences =
  let consts = Ternary.constants ~key:(key_assignment c inferences) c in
  let n_inputs = N.n_inputs c in
  let n_keys = N.n_keys c in
  let base = n_inputs + n_keys in
  let gates = N.gates c in
  let b = N.Builder.create ~n_inputs ~n_keys in
  let memo = Hashtbl.create 64 in
  let const_memo = Hashtbl.create 2 in
  let const_net v =
    match Hashtbl.find_opt const_memo v with
    | Some n -> n
    | None ->
        let n = N.Builder.const b v in
        Hashtbl.add const_memo v n;
        n
  in
  (* Translate an original net into the rebuilt circuit, emitting
     only the gates the outputs still need. Operands always precede
     their gate, so the recursion emits in topological order. *)
  let rec tr net =
    match Hashtbl.find_opt memo net with
    | Some n -> n
    | None ->
        let fresh =
          match consts.(net) with
          | Ternary.Known v -> const_net v
          | Ternary.Unknown ->
              if net < n_inputs then N.Builder.input b net
              else if net < base then N.Builder.key b (net - n_inputs)
              else translate_gate gates.(net - base)
        in
        Hashtbl.replace memo net fresh;
        fresh
  and translate_gate g =
    let known n = consts.(n) in
    let emit g = N.Builder.gate b g in
    match g with
    | N.Buf a -> tr a
    | N.Const v -> const_net v
    | N.Not a -> (
        match known a with
        | Ternary.Known v -> const_net (not v)
        | Ternary.Unknown -> emit (N.Not (tr a)))
    | N.And (x, y) -> binop (fun a b -> N.And (a, b)) ~unit_:true ~inv:false x y
    | N.Or (x, y) -> binop (fun a b -> N.Or (a, b)) ~unit_:false ~inv:false x y
    | N.Nand (x, y) -> binop (fun a b -> N.Nand (a, b)) ~unit_:true ~inv:true x y
    | N.Nor (x, y) -> binop (fun a b -> N.Nor (a, b)) ~unit_:false ~inv:true x y
    | N.Xor (x, y) -> xorop ~odd:true x y
    | N.Xnor (x, y) -> xorop ~odd:false x y
    | N.Mux (s, x, y) -> (
        match known s with
        | Ternary.Known false -> tr x
        | Ternary.Known true -> tr y
        | Ternary.Unknown ->
            if x = y then tr x
            else emit (N.Mux (tr s, tr x, tr y)))
  (* AND/OR-family gate with one operand known: the unit element
     makes the gate transparent (possibly inverted), the absorbing
     element would have made the whole net Known — already handled
     by [tr]. *)
  and binop mk ~unit_ ~inv x y =
    let emit g = N.Builder.gate b g in
    let through n = if inv then emit (N.Not (tr n)) else tr n in
    match (consts.(x), consts.(y)) with
    | Ternary.Known v, _ when v = unit_ -> through y
    | _, Ternary.Known v when v = unit_ -> through x
    | _ -> emit (mk (tr x) (tr y))
  and xorop ~odd x y =
    let emit g = N.Builder.gate b g in
    let through ~flipped n =
      if flipped = odd then emit (N.Not (tr n)) else tr n
    in
    if x = y then const_net (not odd)
    else
      match (consts.(x), consts.(y)) with
      | Ternary.Known v, _ -> through ~flipped:v y
      | _, Ternary.Known v -> through ~flipped:v x
      | _ ->
          if odd then emit (N.Xor (tr x, tr y))
          else emit (N.Xnor (tr x, tr y))
  in
  Array.iter (fun out -> N.Builder.output b (tr out)) (N.outputs c);
  let rebuilt = N.Builder.finish b in
  (rebuilt, N.n_gates c - N.n_gates rebuilt)

let removal c inferences =
  Metrics.incr m_removal_runs;
  Metrics.add m_removal_inferred (List.length inferences);
  let ((_, gates_removed) as result) =
    Metrics.time m_removal_wall (fun () -> rebuild c inferences)
  in
  Metrics.add m_removal_gates_removed gates_removed;
  result
