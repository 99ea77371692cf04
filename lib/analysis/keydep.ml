module N = Rb_netlist.Netlist

type v = (int * int) list

(* Union of sorted assoc lists, keeping the minimum depth per key. *)
let rec union a b =
  match (a, b) with
  | [], x | x, [] -> x
  | (ka, da) :: ta, (kb, db) :: tb ->
      if ka < kb then (ka, da) :: union ta b
      else if kb < ka then (kb, db) :: union a tb
      else (ka, min da db) :: union ta tb

let transfer gate ~read =
  let deps =
    List.fold_left (fun acc n -> union acc (read n)) [] (N.gate_fanin gate)
  in
  List.map (fun (k, d) -> (k, d + 1)) deps

let run c =
  let n_inputs = N.n_inputs c in
  let n_keys = N.n_keys c in
  let init net =
    if net >= n_inputs && net < n_inputs + n_keys then [ (net - n_inputs, 0) ]
    else []
  in
  Engine.run ~init ~transfer c

type summary = {
  key_bit : int;
  outputs_reached : int list;
  min_output_depth : int option;
  cone_gates : int;
}

let summarize c =
  let values = run c in
  let n_keys = N.n_keys c in
  let cone_gates = Array.make n_keys 0 in
  for net = N.n_inputs c + n_keys to N.n_nets c - 1 do
    List.iter (fun (k, _) -> cone_gates.(k) <- cone_gates.(k) + 1) values.(net)
  done;
  let reached = Array.make n_keys [] in
  let min_depth = Array.make n_keys None in
  Array.iteri
    (fun pos net ->
      List.iter
        (fun (k, d) ->
          reached.(k) <- pos :: reached.(k);
          min_depth.(k) <-
            Some (match min_depth.(k) with None -> d | Some d' -> min d d'))
        values.(net))
    (N.outputs c);
  List.init n_keys (fun k ->
      {
        key_bit = k;
        outputs_reached = List.rev reached.(k);
        min_output_depth = min_depth.(k);
        cone_gates = cone_gates.(k);
      })
