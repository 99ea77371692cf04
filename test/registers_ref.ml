module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Binding = Rb_hls.Binding
module Allocation = Rb_hls.Allocation

let bypassed binding (p, birth, death) =
  let dfg = Schedule.dfg (Binding.schedule binding) in
  let fu = Binding.fu_of_op binding p in
  death = birth + 1
  && List.for_all (fun c -> Binding.fu_of_op binding c = fu) (Dfg.successors dfg p)

let count binding =
  let n_cycles = Schedule.n_cycles (Binding.schedule binding) in
  let allocation = Binding.allocation binding in
  let values =
    Rb_hls.Registers.value_lifetimes binding
    |> List.filter (fun v -> not (bypassed binding v))
  in
  let bank_peak fu =
    let mine = List.filter (fun (p, _, _) -> Binding.fu_of_op binding p = fu) values in
    let best = ref 0 in
    for b = 0 to n_cycles - 1 do
      let live =
        List.fold_left
          (fun acc (_, birth, death) -> if birth <= b && b < death then acc + 1 else acc)
          0 mine
      in
      if live > !best then best := live
    done;
    !best
  in
  let total = ref 0 in
  for fu = 0 to Allocation.total allocation - 1 do
    total := !total + bank_peak fu
  done;
  !total
