module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Kmatrix = Rb_sim.Kmatrix
module Binding = Rb_hls.Binding
module Config = Rb_locking.Config

let edge_weight k config ~fu ~op =
  Kmatrix.count_set k (Config.minterms_of config fu) op

let expected_errors k binding config =
  List.fold_left
    (fun acc fu ->
      List.fold_left
        (fun acc op -> acc + edge_weight k config ~fu ~op)
        acc
        (Binding.ops_on_fu binding fu))
    0
    (Config.locked_fus config)

type cand_table = {
  minterms : Minterm.t array;
  counts : int array array; (* candidate index -> op -> K(m, op) *)
}

let cand_table k minterms =
  let n_ops = Dfg.op_count (Kmatrix.dfg k) in
  let counts =
    Array.map (fun m -> Array.init n_ops (fun op -> Kmatrix.count k m op)) minterms
  in
  { minterms = Array.copy minterms; counts }

let candidates t = Array.copy t.minterms

let cand_count t ~cand ~op = t.counts.(cand).(op)

let subset_minterms t subset = Array.to_list (Array.map (fun c -> t.minterms.(c)) subset)
