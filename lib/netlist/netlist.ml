type net = int

type gate =
  | And of net * net
  | Or of net * net
  | Xor of net * net
  | Nand of net * net
  | Nor of net * net
  | Xnor of net * net
  | Not of net
  | Buf of net
  | Mux of net * net * net
  | Const of bool

type t = {
  n_inputs : int;
  n_keys : int;
  gates : gate array;
  outputs : net array;
}

let n_inputs c = c.n_inputs
let n_keys c = c.n_keys
let n_gates c = Array.length c.gates
let n_nets c = c.n_inputs + c.n_keys + Array.length c.gates
let gates c = c.gates
let outputs c = c.outputs

let key_net c i =
  if i < 0 || i >= c.n_keys then invalid_arg "Netlist.key_net";
  c.n_inputs + i

let gate_fanin = function
  | And (a, b) | Or (a, b) | Xor (a, b) | Nand (a, b) | Nor (a, b) | Xnor (a, b) ->
    [ a; b ]
  | Not a | Buf a -> [ a ]
  | Mux (s, a, b) -> [ s; a; b ]
  | Const _ -> []

let output_cone c =
  let base = c.n_inputs + c.n_keys in
  let dist = Array.make (n_nets c) (-1) in
  Array.iter (fun net -> dist.(net) <- 0) c.outputs;
  (* Every fan-out of a net has a higher index, so a reverse sweep
     visits a net only after all its fan-outs have set its distance. *)
  for i = Array.length c.gates - 1 downto 0 do
    let d = dist.(base + i) in
    if d >= 0 then
      List.iter
        (fun f -> if dist.(f) < 0 || d + 1 < dist.(f) then dist.(f) <- d + 1)
        (gate_fanin c.gates.(i))
  done;
  dist

let eval_lanes c values =
  let base = c.n_inputs + c.n_keys in
  let gates = c.gates in
  let n = Array.length gates in
  if Array.length values < base + n then invalid_arg "Netlist.eval_lanes: value array too short";
  for i = 0 to n - 1 do
    values.(base + i) <-
      (match gates.(i) with
       | And (a, b) -> values.(a) land values.(b)
       | Or (a, b) -> values.(a) lor values.(b)
       | Xor (a, b) -> values.(a) lxor values.(b)
       | Nand (a, b) -> lnot (values.(a) land values.(b))
       | Nor (a, b) -> lnot (values.(a) lor values.(b))
       | Xnor (a, b) -> lnot (values.(a) lxor values.(b))
       | Not a -> lnot values.(a)
       | Buf a -> values.(a)
       | Mux (s, a, b) ->
         let s = values.(s) in
         (values.(a) land lnot s) lor (values.(b) land s)
       | Const v -> if v then -1 else 0)
  done

let eval c ~inputs ~keys =
  if Array.length inputs <> c.n_inputs then invalid_arg "Netlist.eval: input width";
  if Array.length keys <> c.n_keys then invalid_arg "Netlist.eval: key width";
  let values = Array.make (n_nets c) 0 in
  Array.iteri (fun i v -> if v then values.(i) <- 1) inputs;
  Array.iteri (fun i v -> if v then values.(c.n_inputs + i) <- 1) keys;
  eval_lanes c values;
  Array.map (fun o -> values.(o) land 1 = 1) c.outputs

let eval_words c ~inputs ~keys =
  if c.n_inputs > 62 || c.n_keys > 62 || Array.length c.outputs > 62 then
    invalid_arg "Netlist.eval_words: more than 62 inputs, keys or outputs";
  let values = Array.make (n_nets c) 0 in
  for i = 0 to c.n_inputs - 1 do
    values.(i) <- (inputs lsr i) land 1
  done;
  for i = 0 to c.n_keys - 1 do
    values.(c.n_inputs + i) <- (keys lsr i) land 1
  done;
  eval_lanes c values;
  let out = ref 0 in
  Array.iteri (fun i o -> out := !out lor ((values.(o) land 1) lsl i)) c.outputs;
  !out

let pp_stats fmt c =
  Format.fprintf fmt "%d inputs, %d keys, %d gates, %d outputs" c.n_inputs c.n_keys
    (Array.length c.gates) (Array.length c.outputs)

module Builder = struct
  type b = {
    n_inputs : int;
    n_keys : int;
    mutable rev_gates : gate list;
    mutable n_gates : int;
    mutable rev_outputs : net list;
  }

  type t = b

  let create ~n_inputs ~n_keys =
    if n_inputs < 0 || n_keys < 0 then invalid_arg "Netlist.Builder.create";
    { n_inputs; n_keys; rev_gates = []; n_gates = 0; rev_outputs = [] }

  let input b i =
    if i < 0 || i >= b.n_inputs then invalid_arg "Netlist.Builder.input";
    i

  let key b i =
    if i < 0 || i >= b.n_keys then invalid_arg "Netlist.Builder.key";
    b.n_inputs + i

  let next_net b = b.n_inputs + b.n_keys + b.n_gates

  let check_net b n =
    if n < 0 || n >= next_net b then invalid_arg "Netlist.Builder: undefined net"

  let gate b g =
    List.iter (check_net b) (gate_fanin g);
    let n = next_net b in
    b.rev_gates <- g :: b.rev_gates;
    b.n_gates <- b.n_gates + 1;
    n

  let not_ b a = gate b (Not a)
  let and_ b a c = gate b (And (a, c))
  let or_ b a c = gate b (Or (a, c))
  let xor_ b a c = gate b (Xor (a, c))
  let xnor_ b a c = gate b (Xnor (a, c))
  let mux b ~sel ~a ~b:b_net = gate b (Mux (sel, a, b_net))
  let const b v = gate b (Const v)

  let rec reduce combine b = function
    | [] -> invalid_arg "Netlist.Builder: empty reduction"
    | [ n ] -> n
    | nets ->
      let rec pair = function
        | [] -> []
        | [ n ] -> [ n ]
        | a :: c :: rest -> combine b a c :: pair rest
      in
      reduce combine b (pair nets)

  let and_reduce b nets = reduce and_ b nets
  let or_reduce b nets = reduce or_ b nets

  let output b n =
    check_net b n;
    b.rev_outputs <- n :: b.rev_outputs

  let finish b =
    {
      n_inputs = b.n_inputs;
      n_keys = b.n_keys;
      gates = Array.of_list (List.rev b.rev_gates);
      outputs = Array.of_list (List.rev b.rev_outputs);
    }
end
