module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Matcher = Rb_matching.Matcher

type weight_fn =
  kind:Dfg.op_kind -> cycle:int -> op:Dfg.op_id -> fu:int -> float

let bind ?(on_bound = fun ~op:_ ~fu:_ -> ()) ~objective ~weight schedule
    allocation =
  let dfg = Schedule.dfg schedule in
  let fu_of_op = Array.make (Dfg.op_count dfg) (-1) in
  let add_fus = Array.of_list (Allocation.fu_ids allocation Dfg.Add)
  and mul_fus = Array.of_list (Allocation.fu_ids allocation Dfg.Mul) in
  let bind_cycle kind cycle =
    let ops = Array.of_list (Schedule.ops_in_cycle schedule kind cycle) in
    if Array.length ops > 0 then begin
      let fus = match kind with Dfg.Add -> add_fus | Dfg.Mul -> mul_fus in
      if Array.length ops > Array.length fus then
        invalid_arg
          (Printf.sprintf "Bind_engine: cycle %d needs %d %s FUs, %d allocated" cycle
             (Array.length ops) (Dfg.kind_label kind) (Array.length fus));
      let matrix =
        Array.map
          (fun op -> Array.map (fun fu -> weight ~kind ~cycle ~op ~fu) fus)
          ops
      in
      let assignment =
        match objective with
        | `Maximize -> Matcher.max_weight matrix
        | `Minimize -> Matcher.min_cost matrix
      in
      Array.iteri
        (fun row col ->
          let op = ops.(row) and fu = fus.(col) in
          fu_of_op.(op) <- fu;
          on_bound ~op ~fu)
        assignment
    end
  in
  for cycle = 0 to Schedule.n_cycles schedule - 1 do
    bind_cycle Dfg.Add cycle;
    bind_cycle Dfg.Mul cycle
  done;
  Binding.make schedule allocation ~fu_of_op
