module Netlist = Rb_netlist.Netlist
module Metrics = Rb_util.Metrics

let m_runs = Metrics.counter ~scope:"analysis" "fixpoint_runs"
let m_transfers = Metrics.counter ~scope:"analysis" "transfers"

let run ~init ~transfer netlist =
  let gates = Netlist.gates netlist in
  let n_gates = Array.length gates in
  let base = Netlist.n_nets netlist - n_gates in
  Metrics.incr m_runs;
  let values = Array.init (Netlist.n_nets netlist) init in
  let read net = values.(net) in
  for i = 0 to n_gates - 1 do
    values.(base + i) <- transfer gates.(i) ~read
  done;
  Metrics.add m_transfers n_gates;
  values
