module Netlist = Rb_netlist.Netlist

type instance = {
  input_vars : int array;
  key_vars : int array;
  output_vars : int array;
}

type sink = { new_var : unit -> int; add_clause : int list -> unit }

let solver_sink solver =
  { new_var = (fun () -> Solver.new_var solver); add_clause = Solver.add_clause solver }

(* CNF clauses asserting z <-> gate(inputs), with [v] resolving net
   variables. *)
let gate_clauses ~z ~v (g : Rb_netlist.Netlist.gate) =
  match g with
  | And (a, b) -> [ [ -z; v a ]; [ -z; v b ]; [ z; -(v a); -(v b) ] ]
  | Nand (a, b) -> [ [ z; v a ]; [ z; v b ]; [ -z; -(v a); -(v b) ] ]
  | Or (a, b) -> [ [ z; -(v a) ]; [ z; -(v b) ]; [ -z; v a; v b ] ]
  | Nor (a, b) -> [ [ -z; -(v a) ]; [ -z; -(v b) ]; [ z; v a; v b ] ]
  | Xor (a, b) ->
    [ [ -z; v a; v b ]; [ -z; -(v a); -(v b) ]; [ z; -(v a); v b ]; [ z; v a; -(v b) ] ]
  | Xnor (a, b) ->
    [ [ z; v a; v b ]; [ z; -(v a); -(v b) ]; [ -z; -(v a); v b ]; [ -z; v a; -(v b) ] ]
  | Not a -> [ [ -z; -(v a) ]; [ z; v a ] ]
  | Buf a -> [ [ -z; v a ]; [ z; -(v a) ] ]
  | Mux (s, a, b) ->
    (* z = s ? b : a *)
    [ [ -z; v s; v a ]; [ z; v s; -(v a) ]; [ -z; -(v s); v b ]; [ z; -(v s); -(v b) ] ]
  | Const true -> [ [ z ] ]
  | Const false -> [ [ -z ] ]

let encode ?input_vars sink circuit =
  let n_in = Netlist.n_inputs circuit in
  let n_key = Netlist.n_keys circuit in
  let fresh n = Array.init n (fun _ -> sink.new_var ()) in
  let input_vars =
    match input_vars with
    | None -> fresh n_in
    | Some v ->
      if Array.length v <> n_in then invalid_arg "Tseitin.encode: input width";
      v
  in
  let key_vars = fresh n_key in
  let n_nets = Netlist.n_nets circuit in
  let var_of_net = Array.make n_nets 0 in
  Array.blit input_vars 0 var_of_net 0 n_in;
  Array.blit key_vars 0 var_of_net n_in n_key;
  let base = n_in + n_key in
  Array.iteri
    (fun i g ->
      let z = sink.new_var () in
      var_of_net.(base + i) <- z;
      let v n = var_of_net.(n) in
      List.iter sink.add_clause (gate_clauses ~z ~v g))
    (Netlist.gates circuit);
  let output_vars = Array.map (fun o -> var_of_net.(o)) (Netlist.outputs circuit) in
  { input_vars; key_vars; output_vars }

type miter = { copy_a : instance; copy_b : instance; act : int option; diffs : int array }

let miter ~activation sink circuit =
  let a = encode sink circuit in
  let b = encode sink circuit ~input_vars:a.input_vars in
  let act = if activation then Some (sink.new_var ()) else None in
  let diffs =
    Array.mapi
      (fun j x ->
        let d = sink.new_var () and y = b.output_vars.(j) in
        sink.add_clause [ -d; x; y ];
        sink.add_clause [ -d; -x; -y ];
        d)
      a.output_vars
  in
  let some_diff = Array.to_list diffs in
  sink.add_clause (match act with Some act -> -act :: some_diff | None -> some_diff);
  { copy_a = a; copy_b = b; act; diffs }

(* Partially evaluated net values while encoding under fixed inputs: a
   net is a known constant, a literal over already-allocated variables
   (negation is free), or a still-unmaterialized conjunction or
   disjunction of literals. Deferring And/Or matters enormously for
   the incremental attack: an observation usually {e forces} most of
   its key cone (a comparator tree forced to 0 is one clause, forced
   to 1 is unit clauses), so a deferred gate that flows into an output
   constraint — or into a wider And/Or, where the literal lists merge —
   never allocates a variable at all. [And]/[Or] lists hold at least
   two distinct, non-complementary literals. *)
type value = F | T | L of int | And of int list | Or of int list

let vneg = function
  | F -> T
  | T -> F
  | L x -> L (-x)
  | And ls -> Or (List.rev_map Int.neg ls)
  | Or ls -> And (List.rev_map Int.neg ls)

let constrain_observation solver circuit ~key_vars ~inputs ~outputs =
  let n_in = Netlist.n_inputs circuit in
  let n_key = Netlist.n_keys circuit in
  if Array.length inputs <> n_in then
    invalid_arg "Tseitin.constrain_observation: input width";
  if Array.length key_vars <> n_key then
    invalid_arg "Tseitin.constrain_observation: key width";
  if Array.length outputs <> Array.length (Netlist.outputs circuit) then
    invalid_arg "Tseitin.constrain_observation: output width";
  let cl = Solver.add_clause solver in
  (* Materialize a deferred value into a defined literal. *)
  let lit_exn = function
    | L x -> x
    | And ls ->
      let z = Solver.new_var solver in
      List.iter (fun l -> cl [ -z; l ]) ls;
      cl (z :: List.rev_map Int.neg ls);
      z
    | Or ls ->
      let z = Solver.new_var solver in
      List.iter (fun l -> cl [ z; -l ]) ls;
      cl (-z :: ls);
      z
    | F | T -> assert false
  in
  let lits = function L x -> [ x ] | And ls -> ls | F | T | Or _ -> assert false in
  (* Conjunction with literal-list merging: duplicate literals unify,
     complementary literals collapse to false, and the result stays
     deferred. The disjunction constructor is its dual via vneg. *)
  let rec mk_and a b =
    match (a, b) with
    | F, _ | _, F -> F
    | T, x | x, T -> x
    | (Or _ as o), x -> mk_and (L (lit_exn o)) x
    | x, (Or _ as o) -> mk_and x (L (lit_exn o))
    | (L _ | And _), (L _ | And _) -> (
      let merged =
        List.fold_left
          (fun acc l ->
            match acc with
            | None -> None
            | Some acc ->
              if List.mem l acc then Some acc
              else if List.mem (-l) acc then None
              else Some (l :: acc))
          (Some (lits a)) (lits b)
      in
      match merged with
      | None -> F
      | Some [ l ] -> L l
      | Some ls -> And ls)
  in
  let mk_or a b = vneg (mk_and (vneg a) (vneg b)) in
  let mk_xor a b =
    match (a, b) with
    | F, x | x, F -> x
    | T, x | x, T -> vneg x
    | a, b ->
      let x = lit_exn a and y = lit_exn b in
      if x = y then F
      else if x = -y then T
      else begin
        let z = Solver.new_var solver in
        cl [ -z; x; y ];
        cl [ -z; -x; -y ];
        cl [ z; -x; y ];
        cl [ z; x; -y ];
        L z
      end
  in
  (* z = s ? b : a, mirroring the Mux convention of [gate_clauses]. *)
  let mk_mux s a b =
    match s with
    | T -> b
    | F -> a
    | s -> (
      if a = b then a
      else
        let sv = lit_exn s in
        match (a, b) with
        | F, T -> L sv
        | T, F -> L (-sv)
        | F, y -> mk_and (L sv) y
        | T, y -> vneg (mk_and (L sv) (vneg y))
        | x, F -> mk_and (L (-sv)) x
        | x, T -> vneg (mk_and (L (-sv)) (vneg x))
        | x, y ->
          let xv = lit_exn x and yv = lit_exn y in
          if xv = yv then L xv
          else if xv = -yv then mk_xor (L sv) (L xv)
          else begin
            let z = Solver.new_var solver in
            cl [ -z; sv; xv ];
            cl [ z; sv; -xv ];
            cl [ -z; -sv; yv ];
            cl [ z; -sv; -yv ];
            L z
          end)
  in
  let n_nets = Netlist.n_nets circuit in
  let values = Array.make n_nets F in
  for i = 0 to n_in - 1 do
    values.(i) <- (if inputs.(i) then T else F)
  done;
  for i = 0 to n_key - 1 do
    values.(n_in + i) <- L key_vars.(i)
  done;
  let base = n_in + n_key in
  (* Raw view for And/Or chains; [vm] materializes (and caches, so a
     net with fanout is materialized at most once) for consumers that
     need a definite literal. *)
  Array.iteri
    (fun i g ->
      let v n = values.(n) in
      let vm n =
        match values.(n) with
        | (And _ | Or _) as d ->
          let z = L (lit_exn d) in
          values.(n) <- z;
          z
        | x -> x
      in
      values.(base + i) <-
        (match (g : Rb_netlist.Netlist.gate) with
        | And (a, b) -> mk_and (v a) (v b)
        | Nand (a, b) -> vneg (mk_and (v a) (v b))
        | Or (a, b) -> mk_or (v a) (v b)
        | Nor (a, b) -> vneg (mk_or (v a) (v b))
        | Xor (a, b) -> mk_xor (vm a) (vm b)
        | Xnor (a, b) -> vneg (mk_xor (vm a) (vm b))
        | Not a -> vneg (v a)
        | Buf a -> v a
        | Mux (s, a, b) -> mk_mux (vm s) (vm a) (vm b)
        | Const c -> if c then T else F))
    (Netlist.gates circuit);
  Array.iteri
    (fun i o ->
      let want = outputs.(i) in
      match values.(o) with
      | T -> if not want then cl [] (* inconsistent observation *)
      | F -> if want then cl []
      | L x -> cl [ (if want then x else -x) ]
      | And ls ->
        (* A forced conjunction never materializes: true pins every
           conjunct, false is a single clause. *)
        if want then List.iter (fun l -> cl [ l ]) ls
        else cl (List.rev_map Int.neg ls)
      | Or ls -> if want then cl ls else List.iter (fun l -> cl [ -l ]) ls)
    (Netlist.outputs circuit)
