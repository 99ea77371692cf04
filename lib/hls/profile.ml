module Operands = Rb_sim.Operands
module Minterm = Rb_dfg.Minterm

type t = Operands.t

let operands t op ~sample = Minterm.unpack (Operands.minterm t op ~sample)

(* Bit count of a minterm's 16 bits, branch-free. *)
let popcount16 x =
  let x = x - ((x lsr 1) land 0x5555) in
  let x = (x land 0x3333) + ((x lsr 2) land 0x3333) in
  let x = (x + (x lsr 4)) land 0x0f0f in
  (x + (x lsr 8)) land 0x1f

(* A minterm packs both operand words side by side, so the toggles of
   the two input ports are the bits set in the xor of the minterms. *)
let expected_input_hamming t op1 op2 =
  let total = ref 0 in
  for s = 0 to Operands.n_samples t - 1 do
    let m1 = Minterm.to_int (Operands.minterm t op1 ~sample:s) in
    let m2 = Minterm.to_int (Operands.minterm t op2 ~sample:s) in
    total := !total + popcount16 (m1 lxor m2)
  done;
  float_of_int !total /. float_of_int (Operands.n_samples t)
