module Netlist = Rb_netlist.Netlist
module Lock = Rb_netlist.Lock
module Rng = Rb_util.Rng
module Testgen = Rb_testsupport.Testgen

(* One scalar evaluation of minterm [x] (input [i] is bit [i] of [x]). *)
let eval_minterm c x ~keys =
  let inputs = Array.init (Netlist.n_inputs c) (fun i -> (x lsr i) land 1 = 1) in
  Testgen.eval_outputs c ~inputs ~keys

let input_space (locked : Lock.locked) =
  let n_in = Netlist.n_inputs locked.circuit in
  if n_in > 20 then invalid_arg "Sweep_ref: input space too large";
  1 lsl n_in

let wrong_key_locked_minterms (locked : Lock.locked) ~key =
  let c = locked.circuit in
  let rec sweep x acc =
    if x < 0 then acc
    else
      let ref_out = eval_minterm c x ~keys:locked.correct_key in
      let out = eval_minterm c x ~keys:key in
      sweep (x - 1) (if ref_out <> out then x :: acc else acc)
  in
  sweep (input_space locked - 1) []

let key_is_correct (locked : Lock.locked) candidate =
  let c = locked.circuit in
  let rec sweep x =
    if x < 0 then true
    else if eval_minterm c x ~keys:locked.correct_key <> eval_minterm c x ~keys:candidate then false
    else sweep (x - 1)
  in
  sweep (input_space locked - 1)

let estimated_error_rate (locked : Lock.locked) ~key ~seed ~skip ~samples =
  let c = locked.circuit in
  let n_in = Netlist.n_inputs c in
  let rng = Rng.create seed in
  let random_inputs () = Array.init n_in (fun _ -> Rng.bool rng) in
  for _ = 1 to skip do
    ignore (random_inputs ())
  done;
  let errors = ref 0 in
  for _ = 1 to samples do
    let inputs = random_inputs () in
    if Testgen.eval_outputs c ~inputs ~keys:key
       <> Testgen.eval_outputs c ~inputs ~keys:locked.correct_key
    then
      incr errors
  done;
  float_of_int !errors /. float_of_int samples
