module N = Rb_netlist.Netlist

type summary = {
  key_bit : int;
  outputs_reached : int;
  min_output_depth : int option;
  cone_gates : int;
}

(* Key sets are bitsets: net [n]'s set is row [n] of a flat array, one
   row of [words] ints per net, [bits] key bits per int. *)
let bits = Sys.int_size

let summarize ~distance c =
  let n_inputs = N.n_inputs c and n_keys = N.n_keys c in
  let words = (n_keys + bits - 1) / bits in
  let deps = Array.make (N.n_nets c * words) 0 in
  for k = 0 to n_keys - 1 do
    deps.(((n_inputs + k) * words) + (k / bits)) <- 1 lsl (k mod bits)
  done;
  (* Add one to [counts.(k)] for every key bit [k] in [net]'s set. *)
  let count counts net =
    for j = 0 to words - 1 do
      let w = ref deps.((net * words) + j) and k = ref (j * bits) in
      while !w <> 0 do
        if !w land 1 = 1 then counts.(!k) <- counts.(!k) + 1;
        w := !w lsr 1;
        incr k
      done
    done
  in
  let cone_gates = Array.make n_keys 0 in
  Array.iteri
    (fun i g ->
      let net = n_inputs + n_keys + i in
      List.iter
        (fun f ->
          for j = 0 to words - 1 do
            deps.((net * words) + j) <- deps.((net * words) + j) lor deps.((f * words) + j)
          done)
        (N.gate_fanin g);
      count cone_gates net)
    (N.gates c);
  let reached = Array.make n_keys 0 in
  Array.iter (count reached) (N.outputs c);
  List.init n_keys (fun k ->
      let d = distance.(n_inputs + k) in
      {
        key_bit = k;
        outputs_reached = reached.(k);
        min_output_depth = (if d >= 0 then Some d else None);
        cone_gates = cone_gates.(k);
      })
