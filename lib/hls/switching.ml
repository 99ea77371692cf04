
let fold_transitions binding f init =
  let allocation = Binding.allocation binding in
  let rec walk acc = function
    | a :: (b :: _ as rest) -> walk (f acc a b) rest
    | [ _ ] | [] -> acc
  in
  let rec over_fus acc fu =
    if fu >= Allocation.total allocation then acc
    else over_fus (walk acc (Binding.ops_on_fu_in_time binding fu)) (fu + 1)
  in
  over_fus init 0

let total_toggles binding profile =
  fold_transitions binding
    (fun acc prev next -> acc +. Profile.expected_input_hamming profile prev next)
    0.0

let rate binding profile =
  let transitions = fold_transitions binding (fun acc _ _ -> acc + 1) 0 in
  if transitions = 0 then 0.0
  else
    total_toggles binding profile
    /. float_of_int (transitions * Rb_dfg.Minterm.bits)
