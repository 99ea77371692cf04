module N = Rb_netlist.Netlist
module Analysis = Rb_netlist.Analysis
module Limits = Rb_util.Limits
module Metrics = Rb_util.Metrics

type inference = { bit : int; value : bool; via : string }

type outcome = {
  attack : string;
  inferred : inference list;
  gates_removed : int;
  keys_stripped : int;
  simplified : N.t option;
  stopped : Limits.reason option;
}

(* ---------- constant-propagation key inference ---------- *)

let stopped_outcome name r =
  {
    attack = name;
    inferred = [];
    gates_removed = 0;
    keys_stripped = 0;
    simplified = None;
    stopped = Some r;
  }

let key_assignment c inferences =
  let key = Array.make (N.n_keys c) Analysis.Unknown in
  List.iter (fun { bit; value; _ } -> key.(bit) <- Analysis.Known value) inferences;
  key

(* The pass-through rule: a key bit consumed exclusively by XOR/XNOR
   gates pairing it with an internal gate net is an inline repair gate
   (the random-XOR/XNOR locking shape); the transparent polarity is
   the correct key. XORs against primary inputs or other key bits are
   comparator inputs (Anti-SAT, point functions) and prove nothing. *)
let pass_through_candidate c k =
  let k_net = N.key_net c k in
  let base = N.n_inputs c + N.n_keys c in
  let internal n = n >= base in
  let candidates =
    Array.to_list (N.gates c)
    |> List.filter_map (fun g ->
           match g with
           | N.Xor (a, b) when a = k_net || b = k_net ->
               let other = if a = k_net then b else a in
               Some (if internal other then Some false else None)
           | N.Xnor (a, b) when a = k_net || b = k_net ->
               let other = if a = k_net then b else a in
               Some (if internal other then Some true else None)
           | g when List.mem k_net (N.gate_fanin g) -> Some None
           | _ -> None)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      if List.for_all (fun c -> c = first) rest then first else None

let const_prop_name = "const-prop"

let const_prop ?limit c =
  let free = Ternary.run ?limit c in
  match free.Engine.stopped with
  | Some r -> stopped_outcome const_prop_name r
  | None ->
      let cone = Engine.output_cone c in
      let live = Ternary.live_nets c in
      let n_keys = N.n_keys c in
      let inferences = ref [] in
      let claimed = Array.make (max n_keys 1) false in
      let claim bit value via =
        claimed.(bit) <- true;
        inferences := { bit; value; via } :: !inferences
      in
      for k = 0 to n_keys - 1 do
        let k_net = N.key_net c k in
        if not cone.(k_net) then claim k false "mute"
        else if not live.(k_net) then claim k false "strip"
      done;
      for k = 0 to n_keys - 1 do
        if not claimed.(k) then
          match pass_through_candidate c k with
          | Some value -> claim k value "pass-through"
          | None -> ()
      done;
      let inferences = List.rev !inferences in
      (* Validation: re-propagate under the inferred assignment; if an
         output turns constant that was free under the unconstrained
         key, a pass-through guess collapsed real logic — drop the
         pass-through class and keep only the sound rules. *)
      let pass_throughs =
        List.filter (fun i -> i.via = "pass-through") inferences
      in
      let validated =
        if pass_throughs = [] then Ok inferences
        else
          let pinned = Ternary.run ?limit ~key:(key_assignment c inferences) c in
          match pinned.Engine.stopped with
          | Some r -> Error r
          | None ->
              let n_nets = N.n_nets c in
              let became_const =
                Array.exists
                  (fun net ->
                    net >= 0 && net < n_nets
                    && Ternary.to_const pinned.Engine.values.(net) <> Analysis.Unknown
                    && Ternary.to_const free.Engine.values.(net) = Analysis.Unknown)
                  (N.outputs c)
              in
              if became_const then
                Ok (List.filter (fun i -> i.via <> "pass-through") inferences)
              else Ok inferences
      in
      (match validated with
      | Error r -> stopped_outcome const_prop_name r
      | Ok inferred ->
          {
            attack = const_prop_name;
            inferred;
            gates_removed = 0;
            keys_stripped = List.length inferred;
            simplified = None;
            stopped = None;
          })

(* ---------- structural removal ---------- *)

let strip c ~key =
  if Analysis.structural_errors c <> [] || Analysis.invalid_outputs c <> []
  then (c, 0)
  else begin
    let n_keys = N.n_keys c in
    let assignment = Array.make n_keys Analysis.Unknown in
    List.iter
      (fun (bit, value) ->
        if bit >= 0 && bit < n_keys then
          assignment.(bit) <- Analysis.Known value)
      key;
    let consts = Ternary.constants ~key:assignment c in
    let n_inputs = N.n_inputs c in
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
       only the gates the outputs still need. The original is
       well-formed (checked above), so operands always precede their
       gate and the recursion emits in topological order. *)
    let rec tr net =
      match Hashtbl.find_opt memo net with
      | Some n -> n
      | None ->
          let fresh =
            match consts.(net) with
            | Analysis.Known v -> const_net v
            | Analysis.Unknown ->
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
          | Analysis.Known v -> const_net (not v)
          | Analysis.Unknown -> emit (N.Not (tr a)))
      | N.And (x, y) -> binop (fun a b -> N.And (a, b)) ~unit_:true ~inv:false x y
      | N.Or (x, y) -> binop (fun a b -> N.Or (a, b)) ~unit_:false ~inv:false x y
      | N.Nand (x, y) -> binop (fun a b -> N.Nand (a, b)) ~unit_:true ~inv:true x y
      | N.Nor (x, y) -> binop (fun a b -> N.Nor (a, b)) ~unit_:false ~inv:true x y
      | N.Xor (x, y) -> xorop ~odd:true x y
      | N.Xnor (x, y) -> xorop ~odd:false x y
      | N.Mux (s, x, y) -> (
          match known s with
          | Analysis.Known false -> tr x
          | Analysis.Known true -> tr y
          | Analysis.Unknown ->
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
      | Analysis.Known v, _ when v = unit_ -> through y
      | _, Analysis.Known v when v = unit_ -> through x
      | _ -> emit (mk (tr x) (tr y))
    and xorop ~odd x y =
      let emit g = N.Builder.gate b g in
      let through ~flipped n =
        if flipped = odd then emit (N.Not (tr n)) else tr n
      in
      if x = y then const_net (not odd)
      else
        match (consts.(x), consts.(y)) with
        | Analysis.Known v, _ -> through ~flipped:v y
        | _, Analysis.Known v -> through ~flipped:v x
        | _ ->
            if odd then emit (N.Xor (tr x, tr y))
            else emit (N.Xnor (tr x, tr y))
    in
    Array.iter (fun out -> N.Builder.output b (tr out)) (N.outputs c);
    let rebuilt = N.Builder.finish b in
    (rebuilt, N.n_gates c - N.n_gates rebuilt)
  end

let removal_name = "removal"

let removal ?limit c =
  let inference = const_prop ?limit c in
  match inference.stopped with
  | Some r -> stopped_outcome removal_name r
  | None ->
      let key =
        List.map (fun { bit; value; _ } -> (bit, value)) inference.inferred
      in
      let simplified, gates_removed = strip c ~key in
      {
        attack = removal_name;
        inferred = inference.inferred;
        gates_removed;
        keys_stripped = List.length inference.inferred;
        simplified = Some simplified;
        stopped = None;
      }

(* ---------- metered entry point ---------- *)

type kind = Const_prop | Removal

(* Every attack run through [run] reports under the "attack" scope:
   deterministic run/inference counters plus a segregated wall-clock
   timer per attack. *)
type meter = {
  runs : Metrics.counter;
  inferences : Metrics.counter;
  removed : Metrics.counter;
  budget : Metrics.counter;
  wall : Metrics.timer;
}

let meter name =
  {
    runs = Metrics.counter ~scope:"attack" (name ^ "_runs");
    inferences = Metrics.counter ~scope:"attack" (name ^ "_inferred");
    removed = Metrics.counter ~scope:"attack" (name ^ "_gates_removed");
    budget = Metrics.counter ~scope:"attack" (name ^ "_stopped");
    wall = Metrics.timer ~scope:"attack" (name ^ "_run");
  }

let const_prop_meter = meter const_prop_name
let removal_meter = meter removal_name

let run ?limit kind c =
  let m, attack =
    match kind with
    | Const_prop -> (const_prop_meter, const_prop)
    | Removal -> (removal_meter, removal)
  in
  Metrics.incr m.runs;
  let out = Metrics.time m.wall (fun () -> attack ?limit c) in
  Metrics.add m.inferences (List.length out.inferred);
  Metrics.add m.removed out.gates_removed;
  if out.stopped <> None then Metrics.incr m.budget;
  out
