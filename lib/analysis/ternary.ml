module N = Rb_netlist.Netlist

type const = Known of bool | Unknown

let not_ = function Known v -> Known (not v) | Unknown -> Unknown

let and_ a b =
  match (a, b) with
  | Known false, _ | _, Known false -> Known false
  | Known true, Known true -> Known true
  | _ -> Unknown

let or_ a b =
  match (a, b) with
  | Known true, _ | _, Known true -> Known true
  | Known false, Known false -> Known false
  | _ -> Unknown

let xor_ a b =
  match (a, b) with Known x, Known y -> Known (x <> y) | _ -> Unknown

let transfer gate ~read =
  match gate with
  | N.Const k -> Known k
  | N.Buf a -> read a
  | N.Not a -> not_ (read a)
  | N.And (a, b) -> and_ (read a) (read b)
  | N.Nand (a, b) -> not_ (and_ (read a) (read b))
  | N.Or (a, b) -> or_ (read a) (read b)
  | N.Nor (a, b) -> not_ (or_ (read a) (read b))
  | N.Xor (a, b) -> if a = b then Known false else xor_ (read a) (read b)
  | N.Xnor (a, b) -> if a = b then Known true else not_ (xor_ (read a) (read b))
  | N.Mux (s, a, b) -> (
      match read s with
      | Known false -> read a
      | Known true -> read b
      | Unknown -> (
          match (read a, read b) with
          | Known x, Known y when x = y -> Known x
          | _ -> Unknown))

let constants ?key c =
  let n_inputs = N.n_inputs c in
  let init =
    match key with
    | None -> fun _ -> Unknown
    | Some key ->
        if Array.length key <> N.n_keys c then
          invalid_arg "Ternary.constants: key assignment width mismatch";
        fun net ->
          if net >= n_inputs && net < n_inputs + N.n_keys c then key.(net - n_inputs)
          else Unknown
  in
  Engine.run ~init ~transfer c

let live_nets c consts =
  let base = N.n_inputs c + N.n_keys c in
  let gates = N.gates c in
  let live = Array.make (N.n_nets c) false in
  let rec visit n =
    if (not live.(n)) && consts.(n) = Unknown then begin
      live.(n) <- true;
      if n >= base then
        match gates.(n - base) with
        | N.Mux (s, a, b) -> (
            (* A known select cuts the unselected branch out of the
               circuit; known data operands are refused by [visit]. *)
            match consts.(s) with
            | Known false -> visit a
            | Known true -> visit b
            | Unknown ->
                visit s;
                visit a;
                visit b)
        | g -> List.iter visit (N.gate_fanin g)
    end
  in
  Array.iter visit (N.outputs c);
  live
