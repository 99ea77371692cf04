module N = Rb_netlist.Netlist
module Keydep = Rb_analysis.Keydep

(* Sorted association list: key bit to minimum depth in gates. *)
type v = (int * int) list

(* Union of sorted assoc lists, keeping the minimum depth per key. *)
let rec union (a : v) (b : v) =
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

let run c : v array =
  let n_inputs = N.n_inputs c in
  let base = n_inputs + N.n_keys c in
  let values =
    Array.init (N.n_nets c) (fun net ->
        if net >= n_inputs && net < base then [ (net - n_inputs, 0) ] else [])
  in
  Array.iteri
    (fun i g -> values.(base + i) <- transfer g ~read:(Array.get values))
    (N.gates c);
  values

let summarize c =
  let values = run c in
  let base = N.n_inputs c + N.n_keys c in
  let outputs = N.outputs c in
  let n_nets = N.n_nets c in
  List.init (N.n_keys c) (fun k ->
      let outputs_reached = ref 0 in
      let min_depth = ref None in
      Array.iter
        (fun net ->
          match List.assoc_opt k values.(net) with
          | Some d ->
              incr outputs_reached;
              min_depth :=
                Some (match !min_depth with None -> d | Some d' -> min d d')
          | None -> ())
        outputs;
      let cone_gates = ref 0 in
      for net = base to n_nets - 1 do
        if List.mem_assoc k values.(net) then incr cone_gates
      done;
      {
        Keydep.key_bit = k;
        outputs_reached = !outputs_reached;
        min_output_depth = !min_depth;
        cone_gates = !cone_gates;
      })
