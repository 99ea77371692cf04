module B = Netlist.Builder
module Rng = Rb_util.Rng

type locked = {
  circuit : Netlist.t;
  correct_key : bool array;
  description : string;
}

let require_unlocked c name =
  if Netlist.n_keys c <> 0 then invalid_arg (name ^ ": circuit already has key inputs")

(* Copy the gates of the unlocked circuit [c] into [b], in order, with
   [c]'s primary input [i] read from net [inputs.(i)]. [rewrite i net]
   returns the net that consumers of gate [i]'s copy [net] should read.
   Returns the nets of [c]'s outputs. *)
let copy_gates ?(rewrite = fun _ net -> net) b c ~inputs =
  let base = Netlist.n_inputs c + Netlist.n_keys c in
  let map = Array.make (Netlist.n_nets c) (-1) in
  Array.blit inputs 0 map 0 (Netlist.n_inputs c);
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
      map.(base + i) <- rewrite i (B.gate b g'))
    (Netlist.gates c);
  Array.map tr (Netlist.outputs c)

let primary_inputs b c = Array.init (Netlist.n_inputs c) (B.input b)

(* [c] over [n_keys] key inputs with output 0 XORed with a flip net,
   which [flip b x] builds over the primary input nets [x]: the shape
   of both point-function and Anti-SAT locking. *)
let flip_output0 c ~n_keys ~flip =
  let b = B.create ~n_inputs:(Netlist.n_inputs c) ~n_keys in
  let x = primary_inputs b c in
  let outs = copy_gates b c ~inputs:x in
  let f = flip b x in
  Array.iteri (fun idx net -> B.output b (if idx = 0 then B.xor_ b net f else net)) outs;
  B.finish b

(* Gate indices in the transitive fan-in of some output, ascending: key
   gates on dead logic would never corrupt anything (and would defeat
   the SAT attack's termination guarantee vacuously). *)
let live_positions c =
  let cone = Netlist.output_cone c in
  let base = Netlist.n_inputs c + Netlist.n_keys c in
  Array.of_list (List.filter (fun i -> cone.(base + i) >= 0) (List.init (Netlist.n_gates c) Fun.id))

let max_xor_key_bits c = Array.length (live_positions c)

let xor_random ~rng ~key_bits c =
  require_unlocked c "Lock.xor_random";
  let positions = live_positions c in
  if key_bits <= 0 || key_bits > Array.length positions then
    invalid_arg "Lock.xor_random: key_bits out of range";
  (* Choose distinct live gate positions and a polarity per key bit. *)
  Rng.shuffle rng positions;
  let chosen = Hashtbl.create key_bits in
  let correct_key = Array.make key_bits false in
  for k = 0 to key_bits - 1 do
    let invert = Rng.bool rng in
    Hashtbl.add chosen positions.(k) (k, invert);
    (* XOR gate passes through when key = 0; XNOR when key = 1. *)
    correct_key.(k) <- invert
  done;
  let b = B.create ~n_inputs:(Netlist.n_inputs c) ~n_keys:key_bits in
  let rewrite i net =
    match Hashtbl.find_opt chosen i with
    | None -> net
    | Some (k, invert) ->
      let key_net = B.key b k in
      if invert then B.xnor_ b net key_net else B.xor_ b net key_net
  in
  Array.iter (B.output b) (copy_gates ~rewrite b c ~inputs:(primary_inputs b c));
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
  let flip b x =
    (* Strip unit: fixed comparators for the protected minterms. *)
    let strip = B.or_reduce b (List.map (fun m -> Circuits.equals_const b x m) minterms) in
    (* Restore unit: one programmable comparator per key block. *)
    let restore_hits =
      List.init h (fun j ->
          let kbits = Array.init n_in (fun i -> B.key b ((j * n_in) + i)) in
          Circuits.equals_bits b x kbits)
    in
    B.xor_ b strip (B.or_reduce b restore_hits)
  in
  let circuit = flip_output0 c ~n_keys ~flip in
  let correct_key = Array.make n_keys false in
  List.iteri
    (fun j m ->
      for i = 0 to n_in - 1 do
        correct_key.((j * n_in) + i) <- (m lsr i) land 1 = 1
      done)
    minterms;
  { circuit; correct_key; description = Printf.sprintf "point-function h=%d" h }

let anti_sat ~rng c =
  require_unlocked c "Lock.anti_sat";
  let n_in = Netlist.n_inputs c in
  if n_in < 1 then invalid_arg "Lock.anti_sat: no inputs";
  let flip b x =
    (* g(X xor K1): AND-tree; its complement side uses K2. *)
    let xored offset = Array.mapi (fun i xi -> B.xor_ b xi (B.key b (offset + i))) x in
    let g1 = B.and_reduce b (Array.to_list (xored 0)) in
    let g2 = B.and_reduce b (Array.to_list (xored n_in)) in
    B.and_ b g1 (B.not_ b g2)
  in
  let circuit = flip_output0 c ~n_keys:(2 * n_in) ~flip in
  let shared = Array.init n_in (fun _ -> Rng.bool rng) in
  let correct_key = Array.append shared shared in
  { circuit; correct_key; description = "anti-SAT" }

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
  let raw = primary_inputs b c in
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
  (* The payload circuit on top of the descrambled wires. *)
  Array.iter (B.output b) (copy_gates b c ~inputs:!wires);
  {
    circuit = B.finish b;
    correct_key;
    description = Printf.sprintf "permnet-%dx%d" layers pairs_per_layer;
  }

(* The one exhaustive sweep. Inputs 0-4 carry fixed lane patterns
   (bit j of [lane_patterns.(i)] is bit i of j), so one word holds 32
   consecutive minterms; inputs 5 and up are constant across such a
   block and come from the block index. The correct-key and candidate
   circuits are simulated in two reused value arrays and compared a
   block at a time, in ascending minterm order. *)
let lane_patterns = [| 0xAAAA_AAAA; 0xCCCC_CCCC; 0xF0F0_F0F0; 0xFF00_FF00; 0xFFFF_0000 |]

(* [sweep_differences locked ~key f] calls [f lo diff] on every block
   of minterms [lo ..] on which the circuit under [key] differs from
   the correct key — bit j of [diff] is set iff minterm [lo + j]
   differs — while [f] returns [true]. *)
let sweep_differences locked ~key f =
  let c = locked.circuit in
  let n_in = Netlist.n_inputs c and n_keys = Netlist.n_keys c in
  if n_in > 20 then invalid_arg "Lock: exhaustive sweep over more than 20 inputs";
  if Array.length key <> n_keys then invalid_arg "Lock: key width";
  let golden = Array.make (Netlist.n_nets c) 0 in
  let candidate = Array.make (Netlist.n_nets c) 0 in
  for k = 0 to n_keys - 1 do
    golden.(n_in + k) <- (if locked.correct_key.(k) then -1 else 0);
    candidate.(n_in + k) <- (if key.(k) then -1 else 0)
  done;
  let lane_bits = min n_in (Array.length lane_patterns) in
  for i = 0 to lane_bits - 1 do
    golden.(i) <- lane_patterns.(i);
    candidate.(i) <- lane_patterns.(i)
  done;
  (* Fewer than 5 inputs fill only the low 2^n_in lanes; the rest
     repeat those minterms and must not be reported. *)
  let mask = (1 lsl (1 lsl lane_bits)) - 1 in
  let outputs = Netlist.outputs c in
  let rec block b =
    if b < 1 lsl (n_in - lane_bits) then begin
      for i = lane_bits to n_in - 1 do
        let w = if (b lsr (i - lane_bits)) land 1 = 1 then -1 else 0 in
        golden.(i) <- w;
        candidate.(i) <- w
      done;
      Netlist.eval_lanes c golden;
      Netlist.eval_lanes c candidate;
      let diff = ref 0 in
      for j = 0 to Array.length outputs - 1 do
        diff := !diff lor (golden.(outputs.(j)) lxor candidate.(outputs.(j)))
      done;
      let diff = !diff land mask in
      if diff = 0 || f (b lsl lane_bits) diff then block (b + 1)
    end
  in
  block 0

let wrong_key_locked_minterms locked ~key =
  let rev = ref [] in
  sweep_differences locked ~key (fun lo diff ->
      for j = 0 to 31 do
        if (diff lsr j) land 1 = 1 then rev := (lo + j) :: !rev
      done;
      true);
  List.rev !rev

let first_wrong_minterm locked ~key =
  let first = ref None in
  sweep_differences locked ~key (fun lo diff ->
      let rec lowest j = if (diff lsr j) land 1 = 1 then j else lowest (j + 1) in
      first := Some (lo + lowest 0);
      false);
  !first

let error_rate locked ~key =
  let n_in = Netlist.n_inputs locked.circuit in
  let errors = List.length (wrong_key_locked_minterms locked ~key) in
  float_of_int errors /. float_of_int (1 lsl n_in)

let gate_overhead locked ~baseline =
  let extra = Netlist.n_gates locked.circuit - Netlist.n_gates baseline in
  float_of_int extra /. float_of_int (Netlist.n_gates baseline)
