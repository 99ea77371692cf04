module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Matcher = Rb_matching.Matcher
module Allocation = Rb_hls.Allocation
module Bind_engine = Rb_hls.Bind_engine

let bind k config schedule allocation =
  let weight ~kind:_ ~cycle:_ ~op ~fu =
    float_of_int (Cost.edge_weight k config ~fu ~op)
  in
  Bind_engine.bind ~objective:`Maximize ~weight schedule allocation

module Fast = struct
  type t = {
    table : Cost.cand_table;
    fus : int array;
    cycles : int array array;
    n_ops : int;
  }

  let prepare table schedule allocation ~kind =
    let fus = Array.of_list (Allocation.fu_ids allocation kind) in
    let cycles =
      Array.init (Schedule.n_cycles schedule) (fun c ->
          Array.of_list (Schedule.ops_in_cycle schedule kind c))
    in
    Array.iter
      (fun ops ->
        if Array.length ops > Array.length fus then
          invalid_arg "Obf_binding.Fast.prepare: allocation too small")
      cycles;
    { table; fus; cycles; n_ops = Dfg.op_count (Schedule.dfg schedule) }

  (* One max-weight matching per cycle. [solve_cycle] is either the
     totals-only path (no tie canonicalization — optimal totals are
     unique, and this is the codesign sweep's hot loop) or the
     canonical-assignment path for materialized bindings. *)
  let run t ~locks ~solve_cycle =
    let subset_of = Hashtbl.create 8 in
    List.iter
      (fun (fu, subset) ->
        if not (Array.exists (( = ) fu) t.fus) then
          invalid_arg "Obf_binding.Fast: locked FU of the wrong kind";
        Hashtbl.replace subset_of fu subset)
      locks;
    let total = ref 0 in
    let weigh op fu =
      match Hashtbl.find_opt subset_of fu with
      | None -> 0.0
      | Some subset -> float_of_int (Cost.subset_weight t.table ~subset ~op)
    in
    Array.iter
      (fun ops ->
        if Array.length ops > 0 then begin
          let matrix =
            Array.map (fun op -> Array.map (fun fu -> weigh op fu) t.fus) ops
          in
          total := !total + solve_cycle ops matrix
        end)
      t.cycles;
    !total

  let best_errors t ~locks =
    run t ~locks ~solve_cycle:(fun _ matrix ->
        int_of_float (Matcher.max_weight_total matrix))

  let best_binding t ~locks =
    let fu_of_op = Array.make t.n_ops (-1) in
    let errors =
      run t ~locks ~solve_cycle:(fun ops matrix ->
          let assignment = Matcher.max_weight matrix in
          let sub = ref 0 in
          Array.iteri
            (fun row col ->
              sub := !sub + int_of_float matrix.(row).(col);
              fu_of_op.(ops.(row)) <- t.fus.(col))
            assignment;
          !sub)
    in
    (fu_of_op, errors)
end
