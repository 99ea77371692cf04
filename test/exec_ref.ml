module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Word = Rb_dfg.Word
module Trace = Rb_sim.Trace
module Config = Rb_locking.Config

type op_eval = { a : int; b : int; result : int }

(* [corrupts op a b] says whether [op]'s result is corrupted on these
   operands; the clean run never corrupts. *)
let eval trace ~sample ~corrupts =
  let dfg = Trace.dfg trace in
  let evals = Array.make (Dfg.op_count dfg) { a = 0; b = 0; result = 0 } in
  let value = function
    | Dfg.Input name -> Trace.input_value trace ~sample ~input:name
    | Dfg.Const c -> Word.clamp c
    | Dfg.Op id -> evals.(id).result
  in
  let injections = ref 0 in
  Array.iter
    (fun (o : Dfg.operation) ->
      let a = value o.lhs and b = value o.rhs in
      let clean = Dfg.eval_kind o.kind a b in
      let result =
        if corrupts o.id a b then begin
          incr injections;
          Config.corrupt clean
        end
        else clean
      in
      evals.(o.id) <- { a; b; result })
    (Dfg.ops dfg);
  (evals, !injections)

let eval_clean trace ~sample = fst (eval trace ~sample ~corrupts:(fun _ _ _ -> false))

let eval_locked trace ~sample ~fu_of_op ~config =
  if Array.length fu_of_op <> Dfg.op_count (Trace.dfg trace) then
    invalid_arg "Exec_ref.eval_locked: binding width";
  eval trace ~sample ~corrupts:(fun id a b ->
      Config.is_locked_input config ~fu:fu_of_op.(id) (Minterm.pack a b))
