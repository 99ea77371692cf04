module N = Rb_netlist.Netlist
module Keydep = Rb_analysis.Keydep

let summarize c =
  let values = Keydep.run c in
  let base = N.n_inputs c + N.n_keys c in
  let outputs = N.outputs c in
  let n_nets = N.n_nets c in
  List.init (N.n_keys c) (fun k ->
      let outputs_reached = ref [] in
      let min_depth = ref None in
      Array.iteri
        (fun pos net ->
          match List.assoc_opt k values.(net) with
          | Some d ->
              outputs_reached := pos :: !outputs_reached;
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
        outputs_reached = List.rev !outputs_reached;
        min_output_depth = !min_depth;
        cone_gates = !cone_gates;
      })
