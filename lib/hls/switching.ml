module Operands = Rb_sim.Operands
module Minterm = Rb_dfg.Minterm

(* Bit count of a minterm's 16 bits, branch-free. *)
let popcount16 x =
  let x = x - ((x lsr 1) land 0x5555) in
  let x = (x land 0x3333) + ((x lsr 2) land 0x3333) in
  let x = (x + (x lsr 4)) land 0x0f0f in
  (x + (x lsr 8)) land 0x1f

(* A minterm packs both operand words side by side, so the toggles of
   the two input ports are the bits set in the xor of the minterms. *)
let expected_input_hamming operands op1 op2 =
  let total = ref 0 in
  for s = 0 to Operands.n_samples operands - 1 do
    let m1 = Minterm.to_int (Operands.minterm operands op1 ~sample:s) in
    let m2 = Minterm.to_int (Operands.minterm operands op2 ~sample:s) in
    total := !total + popcount16 (m1 lxor m2)
  done;
  float_of_int !total /. float_of_int (Operands.n_samples operands)

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
    (fun acc prev next -> acc +. expected_input_hamming profile prev next)
    0.0

let rate binding profile =
  let transitions = fold_transitions binding (fun acc _ _ -> acc + 1) 0 in
  if transitions = 0 then 0.0
  else
    total_toggles binding profile
    /. float_of_int (transitions * Minterm.bits)
