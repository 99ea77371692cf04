type t = {
  n_vars : int;
  clauses : int list list;
  input_vars : int array;
  key_vars : int array;
  output_vars : int array;
}

(* Run [encode] on a sink that numbers variables from 1 and collects
   the clauses in order. *)
let collect encode =
  let n_vars = ref 0 and rev_clauses = ref [] in
  let result =
    encode
      {
        Tseitin.new_var =
          (fun () ->
            incr n_vars;
            !n_vars);
        add_clause = (fun c -> rev_clauses := c :: !rev_clauses);
      }
  in
  (!n_vars, List.rev !rev_clauses, result)

let of_netlist circuit =
  let n_vars, clauses, (c : Tseitin.instance) =
    collect (fun sink -> Tseitin.encode sink circuit)
  in
  { n_vars; clauses; input_vars = c.input_vars; key_vars = c.key_vars; output_vars = c.output_vars }

let miter circuit =
  let n_vars, clauses, (m : Tseitin.miter) =
    collect (fun sink -> Tseitin.miter ~activation:false sink circuit)
  in
  {
    n_vars;
    clauses;
    input_vars = m.copy_a.input_vars;
    key_vars = m.copy_a.key_vars;
    output_vars = m.diffs;
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
