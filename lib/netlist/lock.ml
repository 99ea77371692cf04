module B = Netlist.Builder
module Rng = Rb_util.Rng

type locked = {
  circuit : Netlist.t;
  correct_key : bool array;
  description : string;
}

let require_unlocked c name =
  if Netlist.n_keys c <> 0 then invalid_arg (name ^ ": circuit already has key inputs")

(* Rebuild [c] inside a fresh builder with [n_keys] key inputs,
   applying [rewrite] after each original gate: [rewrite i new_net]
   returns the net that consumers of original gate [i] should read. *)
let rebuild c ~n_keys ~rewrite =
  let b = B.create ~n_inputs:(Netlist.n_inputs c) ~n_keys in
  let base = Netlist.n_inputs c + Netlist.n_keys c in
  let map = Array.make (Netlist.n_nets c) (-1) in
  for i = 0 to Netlist.n_inputs c - 1 do
    map.(i) <- B.input b i
  done;
  let tr n =
    let m = map.(n) in
    assert (m >= 0);
    m
  in
  Array.iteri
    (fun i g ->
      let g' =
        match (g : Netlist.gate) with
        | And (x, y) -> Netlist.And (tr x, tr y)
        | Or (x, y) -> Netlist.Or (tr x, tr y)
        | Xor (x, y) -> Netlist.Xor (tr x, tr y)
        | Nand (x, y) -> Netlist.Nand (tr x, tr y)
        | Nor (x, y) -> Netlist.Nor (tr x, tr y)
        | Xnor (x, y) -> Netlist.Xnor (tr x, tr y)
        | Not x -> Netlist.Not (tr x)
        | Buf x -> Netlist.Buf (tr x)
        | Mux (s, x, y) -> Netlist.Mux (tr s, tr x, tr y)
        | Const v -> Netlist.Const v
      in
      let net = B.gate b g' in
      map.(base + i) <- rewrite b i net)
    (Netlist.gates c);
  (b, fun n -> tr n)

(* Gate indices in the transitive fan-in of some output: key gates on
   dead logic would never corrupt anything (and would defeat the SAT
   attack's termination guarantee vacuously). *)
let live_gates c =
  let base = Netlist.n_inputs c + Netlist.n_keys c in
  let gates = Netlist.gates c in
  let live = Array.make (Array.length gates) false in
  let rec visit net =
    if net >= base && not live.(net - base) then begin
      live.(net - base) <- true;
      List.iter visit (Netlist.gate_fanin gates.(net - base))
    end
  in
  Array.iter visit (Netlist.outputs c);
  live

let live_positions c =
  let live = live_gates c in
  Array.of_list (List.filter (fun i -> live.(i)) (List.init (Netlist.n_gates c) Fun.id))

let max_xor_key_bits c = Array.length (live_positions c)

let xor_random ~rng ~key_bits c =
  require_unlocked c "Lock.xor_random";
  let live_positions = live_positions c in
  if key_bits <= 0 || key_bits > Array.length live_positions then
    invalid_arg "Lock.xor_random: key_bits out of range";
  (* Choose distinct live gate positions and a polarity per key bit. *)
  let positions = live_positions in
  Rng.shuffle rng positions;
  let chosen = Hashtbl.create key_bits in
  let correct_key = Array.make key_bits false in
  for k = 0 to key_bits - 1 do
    let invert = Rng.bool rng in
    Hashtbl.add chosen positions.(k) (k, invert);
    (* XOR gate passes through when key = 0; XNOR when key = 1. *)
    correct_key.(k) <- invert
  done;
  let rewrite b i net =
    match Hashtbl.find_opt chosen i with
    | None -> net
    | Some (k, invert) ->
      let key_net = B.key b k in
      if invert then B.xnor_ b net key_net else B.xor_ b net key_net
  in
  let b, tr = rebuild c ~n_keys:key_bits ~rewrite in
  Array.iter (fun o -> B.output b (tr o)) (Netlist.outputs c);
  { circuit = B.finish b; correct_key; description = Printf.sprintf "RLL-%d" key_bits }

let point_function ~minterms c =
  require_unlocked c "Lock.point_function";
  let n_in = Netlist.n_inputs c in
  let minterms = List.sort_uniq Int.compare minterms in
  let h = List.length minterms in
  if h = 0 then invalid_arg "Lock.point_function: no minterms";
  List.iter
    (fun m ->
      if m < 0 || m >= 1 lsl n_in then invalid_arg "Lock.point_function: minterm range")
    minterms;
  let n_keys = h * n_in in
  let rewrite _ _ net = net in
  let b, tr = rebuild c ~n_keys ~rewrite in
  let x = Array.init n_in (fun i -> B.input b i) in
  (* Strip unit: fixed comparators for the protected minterms. *)
  let strip_hits = List.map (fun m -> Circuits.equals_const b x m) minterms in
  let strip = B.or_reduce b strip_hits in
  (* Restore unit: one programmable comparator per key block. *)
  let restore_hits =
    List.init h (fun j ->
        let kbits = Array.init n_in (fun i -> B.key b ((j * n_in) + i)) in
        Circuits.equals_bits b x kbits)
  in
  let restore = B.or_reduce b restore_hits in
  let flip = B.xor_ b strip restore in
  let outs = Netlist.outputs c in
  Array.iteri
    (fun idx o ->
      let net = tr o in
      if idx = 0 then B.output b (B.xor_ b net flip) else B.output b net)
    outs;
  let correct_key = Array.make n_keys false in
  List.iteri
    (fun j m ->
      for i = 0 to n_in - 1 do
        correct_key.((j * n_in) + i) <- (m lsr i) land 1 = 1
      done)
    minterms;
  {
    circuit = B.finish b;
    correct_key;
    description = Printf.sprintf "point-function h=%d" h;
  }

let anti_sat ~rng c =
  require_unlocked c "Lock.anti_sat";
  let n_in = Netlist.n_inputs c in
  if n_in < 1 then invalid_arg "Lock.anti_sat: no inputs";
  let n_keys = 2 * n_in in
  let rewrite _ _ net = net in
  let b, tr = rebuild c ~n_keys ~rewrite in
  let x = Array.init n_in (fun i -> B.input b i) in
  (* g(X xor K1): AND-tree; its complement side uses K2. *)
  let xored offset = Array.mapi (fun i xi -> B.xor_ b xi (B.key b (offset + i))) x in
  let g1 = B.and_reduce b (Array.to_list (xored 0)) in
  let g2 = B.and_reduce b (Array.to_list (xored n_in)) in
  let y = B.and_ b g1 (B.not_ b g2) in
  Array.iteri
    (fun idx o ->
      let net = tr o in
      if idx = 0 then B.output b (B.xor_ b net y) else B.output b net)
    (Netlist.outputs c);
  let shared = Array.init n_in (fun _ -> Rng.bool rng) in
  let correct_key = Array.append shared shared in
  { circuit = B.finish b; correct_key; description = "anti-SAT" }

(* Swap layer routing: layer [l] pairs wire [2i + (l mod 2)] with its
   neighbour, so consecutive layers interleave (an omega-network
   flavour).  The fixed scrambling permutation is built from the very
   same swap structure with random controls, so the correct key is the
   layer-reversed control sequence, undoing the scramble exactly. *)
let permutation_network ~rng ~layers c =
  require_unlocked c "Lock.permutation_network";
  if layers <= 0 then invalid_arg "Lock.permutation_network: layers";
  let n_in = Netlist.n_inputs c in
  if n_in < 2 then invalid_arg "Lock.permutation_network: needs >= 2 inputs";
  let pairs_per_layer = n_in / 2 in
  let layer_pairs l =
    let offset = if l mod 2 = 1 && n_in > 2 then 1 else 0 in
    let rec collect i acc =
      if i + 1 >= n_in then List.rev acc else collect (i + 2) ((i, i + 1) :: acc)
    in
    collect offset []
  in
  (* One key bit per swap actually built: offset (odd) layers of an
     even-width network have one swap fewer than full layers, so
     allocating layers * n_in/2 keys would leave dead key inputs —
     free key bits that Rb_lint flags as NET-KEY-MUTE. *)
  let n_keys =
    let rec total l acc =
      if l >= layers then acc else total (l + 1) (acc + List.length (layer_pairs l))
    in
    total 0 0
  in
  (* Random controls for the scramble; applied layer 0 .. layers-1. *)
  let scramble = Array.init layers (fun _ -> Array.init pairs_per_layer (fun _ -> Rng.bool rng)) in
  let apply_fixed perm =
    (* Permute indices according to the scramble controls. *)
    let wires = Array.init n_in Fun.id in
    for l = 0 to layers - 1 do
      List.iteri
        (fun p (i, j) ->
          if scramble.(l).(p) then begin
            let tmp = wires.(i) in
            wires.(i) <- wires.(j);
            wires.(j) <- tmp
          end)
        (layer_pairs l)
    done;
    Array.map (fun i -> perm.(i)) wires
  in
  let b = B.create ~n_inputs:n_in ~n_keys in
  let raw = Array.init n_in (fun i -> B.input b i) in
  (* The scrambled wire order that the chip sees. *)
  let scrambled = apply_fixed raw in
  (* Keyed network: layers applied in reverse order undo the scramble
     when each layer's controls equal the scramble controls of the
     mirrored layer. *)
  let wires = ref (Array.copy scrambled) in
  let correct_key = Array.make n_keys false in
  let next_key = ref 0 in
  for l = 0 to layers - 1 do
    let src_layer = layers - 1 - l in
    let next = Array.copy !wires in
    List.iteri
      (fun p (i, j) ->
        let k_idx = !next_key in
        incr next_key;
        let kn = B.key b k_idx in
        let w = !wires in
        next.(i) <- B.mux b ~sel:kn ~a:w.(i) ~b:w.(j);
        next.(j) <- B.mux b ~sel:kn ~a:w.(j) ~b:w.(i);
        correct_key.(k_idx) <- scramble.(src_layer).(p))
      (layer_pairs src_layer);
    wires := next
  done;
  (* Rebuild the payload circuit on top of the descrambled wires. *)
  let base = n_in in
  let map = Array.make (Netlist.n_nets c) (-1) in
  Array.iteri (fun i w -> map.(i) <- w) !wires;
  let tr n =
    let m = map.(n) in
    assert (m >= 0);
    m
  in
  Array.iteri
    (fun i g ->
      let g' =
        match (g : Netlist.gate) with
        | And (x, y) -> Netlist.And (tr x, tr y)
        | Or (x, y) -> Netlist.Or (tr x, tr y)
        | Xor (x, y) -> Netlist.Xor (tr x, tr y)
        | Nand (x, y) -> Netlist.Nand (tr x, tr y)
        | Nor (x, y) -> Netlist.Nor (tr x, tr y)
        | Xnor (x, y) -> Netlist.Xnor (tr x, tr y)
        | Not x -> Netlist.Not (tr x)
        | Buf x -> Netlist.Buf (tr x)
        | Mux (s, x, y) -> Netlist.Mux (tr s, tr x, tr y)
        | Const v -> Netlist.Const v
      in
      map.(base + i) <- B.gate b g')
    (Netlist.gates c);
  Array.iter (fun o -> B.output b (tr o)) (Netlist.outputs c);
  {
    circuit = B.finish b;
    correct_key;
    description = Printf.sprintf "permnet-%dx%d" layers pairs_per_layer;
  }

let wrong_key_locked_minterms locked ~key =
  let c = locked.circuit in
  let n_in = Netlist.n_inputs c in
  if n_in > 20 then invalid_arg "Lock.wrong_key_locked_minterms: input space too large";
  let pack_key k =
    Array.to_list k
    |> List.mapi (fun i b -> if b then 1 lsl i else 0)
    |> List.fold_left ( lor ) 0
  in
  let golden = pack_key locked.correct_key in
  let wrong = pack_key key in
  let rec sweep x acc =
    if x < 0 then acc
    else
      let ref_out = Netlist.eval_words c ~inputs:x ~keys:golden in
      let out = Netlist.eval_words c ~inputs:x ~keys:wrong in
      sweep (x - 1) (if ref_out <> out then x :: acc else acc)
  in
  sweep ((1 lsl n_in) - 1) []

let error_rate locked ~key =
  let n_in = Netlist.n_inputs locked.circuit in
  let errors = List.length (wrong_key_locked_minterms locked ~key) in
  float_of_int errors /. float_of_int (1 lsl n_in)

let gate_overhead locked ~baseline =
  let extra = Netlist.n_gates locked.circuit - Netlist.n_gates baseline in
  float_of_int extra /. float_of_int (Netlist.n_gates baseline)
