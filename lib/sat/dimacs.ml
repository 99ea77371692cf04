module Netlist = Rb_netlist.Netlist

type t = {
  n_vars : int;
  clauses : int list list;
  input_vars : int array;
  key_vars : int array;
  output_vars : int array;
}

(* Standalone Tseitin encoding: variables 1..n_in are inputs, the next
   n_key are keys, then one per gate, allocated in gate order (plus any
   extra the caller appends). *)
let encode_copy ~next_var ~clauses ?input_vars circuit =
  let n_in = Netlist.n_inputs circuit in
  let n_key = Netlist.n_keys circuit in
  let fresh () =
    let v = !next_var in
    incr next_var;
    v
  in
  let input_vars =
    match input_vars with
    | Some v -> v
    | None -> Array.init n_in (fun _ -> fresh ())
  in
  let key_vars = Array.init n_key (fun _ -> fresh ()) in
  let var_of_net = Array.make (Netlist.n_nets circuit) 0 in
  Array.blit input_vars 0 var_of_net 0 n_in;
  Array.blit key_vars 0 var_of_net n_in n_key;
  let base = n_in + n_key in
  Array.iteri
    (fun i g ->
      let z = fresh () in
      var_of_net.(base + i) <- z;
      let v n = var_of_net.(n) in
      clauses := List.rev_append (Tseitin.gate_clauses ~z ~v g) !clauses)
    (Netlist.gates circuit);
  let output_vars = Array.map (fun o -> var_of_net.(o)) (Netlist.outputs circuit) in
  (input_vars, key_vars, output_vars)

let of_netlist circuit =
  let next_var = ref 1 in
  let clauses = ref [] in
  let input_vars, key_vars, output_vars = encode_copy ~next_var ~clauses circuit in
  {
    n_vars = !next_var - 1;
    clauses = List.rev !clauses;
    input_vars;
    key_vars;
    output_vars;
  }

let miter circuit =
  let next_var = ref 1 in
  let clauses = ref [] in
  let input_vars, key_a, out_a = encode_copy ~next_var ~clauses circuit in
  let _, _key_b, out_b = encode_copy ~next_var ~clauses ~input_vars circuit in
  (* difference indicators: d_i -> (out_a.i xor out_b.i); assert some d *)
  let diffs =
    Array.init (Array.length out_a) (fun i ->
        let d = !next_var in
        incr next_var;
        clauses := [ -d; out_a.(i); out_b.(i) ] :: !clauses;
        clauses := [ -d; -out_a.(i); -out_b.(i) ] :: !clauses;
        d)
  in
  clauses := Array.to_list diffs :: !clauses;
  {
    n_vars = !next_var - 1;
    clauses = List.rev !clauses;
    input_vars;
    key_vars = key_a;
    output_vars = diffs;
  }

let to_string ?(comments = []) t =
  let buf = Buffer.create 4096 in
  List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "c %s\n" c)) comments;
  let span name vars =
    if Array.length vars > 0 then
      Buffer.add_string buf
        (Printf.sprintf "c %s: variables %d..%d\n" name vars.(0)
           vars.(Array.length vars - 1))
  in
  span "primary inputs" t.input_vars;
  span "key inputs" t.key_vars;
  (* outputs are not contiguous; list them *)
  if Array.length t.output_vars > 0 then
    Buffer.add_string buf
      (Printf.sprintf "c outputs: %s\n"
         (String.concat " " (Array.to_list (Array.map string_of_int t.output_vars))));
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" t.n_vars (List.length t.clauses));
  List.iter
    (fun clause ->
      List.iter (fun lit -> Buffer.add_string buf (Printf.sprintf "%d " lit)) clause;
      Buffer.add_string buf "0\n")
    t.clauses;
  Buffer.contents buf
