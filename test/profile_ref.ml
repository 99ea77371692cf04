(* The original profile: two [int array array] tables (op -> sample ->
   operand word) filled by one single-sample [Exec_ref.eval_clean] call per
   sample. *)

module Dfg = Rb_dfg.Dfg
module Trace = Rb_sim.Trace

type t = {
  n_samples : int;
  a_values : int array array;
  b_values : int array array;
}

let build trace =
  let dfg = Trace.dfg trace in
  let n_ops = Dfg.op_count dfg in
  let n_samples = Trace.length trace in
  let a_values = Array.init n_ops (fun _ -> Array.make n_samples 0) in
  let b_values = Array.init n_ops (fun _ -> Array.make n_samples 0) in
  for s = 0 to n_samples - 1 do
    let evals = Exec_ref.eval_clean trace ~sample:s in
    for id = 0 to n_ops - 1 do
      a_values.(id).(s) <- evals.(id).Exec_ref.a;
      b_values.(id).(s) <- evals.(id).Exec_ref.b
    done
  done;
  { n_samples; a_values; b_values }

let n_samples t = t.n_samples
let operands t op ~sample = (t.a_values.(op).(sample), t.b_values.(op).(sample))

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let expected_input_hamming t op1 op2 =
  let total = ref 0 in
  for s = 0 to t.n_samples - 1 do
    total :=
      !total
      + popcount (t.a_values.(op1).(s) lxor t.a_values.(op2).(s))
      + popcount (t.b_values.(op1).(s) lxor t.b_values.(op2).(s))
  done;
  float_of_int !total /. float_of_int t.n_samples

let power_bind schedule allocation profile =
  let last_on_fu = Hashtbl.create 16 in
  let weight ~kind:_ ~cycle:_ ~op ~fu =
    match Hashtbl.find_opt last_on_fu fu with
    | None -> 0.0
    | Some prev -> expected_input_hamming profile prev op
  in
  let on_bound ~op ~fu = Hashtbl.replace last_on_fu fu op in
  Rb_hls.Bind_engine.bind ~on_bound ~objective:`Minimize ~weight schedule allocation
