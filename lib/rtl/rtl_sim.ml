module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Binding = Rb_hls.Binding
module Allocation = Rb_hls.Allocation
module Trace = Rb_sim.Trace
module Exec = Rb_sim.Exec

(* The control schedule bucketed by cycle, each bucket in the
   datapath's own order, so a simulated cycle touches only its own
   issues and writes. *)
type program = { issues : Datapath.issue list array; writes : Datapath.write list array }

let program dp =
  let n_cycles = Schedule.n_cycles (Binding.schedule (Datapath.binding dp)) in
  let bucket cycle_of items =
    let by_cycle = Array.make n_cycles [] in
    List.iter (fun x -> by_cycle.(cycle_of x) <- x :: by_cycle.(cycle_of x)) (List.rev items);
    by_cycle
  in
  {
    issues = bucket (fun (i : Datapath.issue) -> i.Datapath.cycle) (Datapath.issues dp);
    writes = bucket (fun (w : Datapath.write) -> w.Datapath.cycle) (Datapath.writes dp);
  }

let simulate program dp trace ~sample =
  let binding = Datapath.binding dp in
  let schedule = Binding.schedule binding in
  let dfg = Schedule.dfg schedule in
  if Dfg.name (Trace.dfg trace) <> Dfg.name dfg then
    invalid_arg "Rtl_sim.run: trace wraps a different DFG";
  let n_cycles = Schedule.n_cycles schedule in
  let registers = Array.make (max 1 (Datapath.n_registers dp)) 0 in
  let latches = Array.make (Allocation.total (Binding.allocation binding)) 0 in
  let results = Array.make (Dfg.op_count dfg) 0 in
  let read = function
    | Datapath.From_input name -> Trace.input_value trace ~sample ~input:name
    | Datapath.From_const c -> c
    | Datapath.From_fu fu -> latches.(fu)
    | Datapath.From_register r -> registers.(r)
  in
  for cycle = 0 to n_cycles - 1 do
    (* Read phase: all of this cycle's issues sample their sources
       against the pre-cycle state. *)
    let fired =
      List.map
        (fun (i : Datapath.issue) ->
          let a = read i.Datapath.lhs_src and b = read i.Datapath.rhs_src in
          let kind = (Dfg.op dfg i.Datapath.op).Dfg.kind in
          let v = Dfg.eval_kind kind a b in
          results.(i.Datapath.op) <- v;
          (i.Datapath.fu, v))
        program.issues.(cycle)
    in
    (* Write phase: FU output latches, then register-file commits. *)
    List.iter (fun (fu, v) -> latches.(fu) <- v) fired;
    List.iter
      (fun (w : Datapath.write) -> registers.(w.Datapath.register) <- results.(w.Datapath.op))
      program.writes.(cycle)
  done;
  results

let run dp trace ~sample = simulate (program dp) dp trace ~sample

let check_trace dp trace =
  let program = program dp in
  let n = Trace.length trace in
  (* One compiled golden evaluator for the whole trace; its result
     buffer is overwritten per sample. *)
  let fast = Exec.Fast.make trace in
  let golden = Exec.Fast.results fast in
  let rec go sample =
    if sample >= n then Ok ()
    else begin
      let rtl = simulate program dp trace ~sample in
      Exec.Fast.eval_clean fast ~sample;
      let rec compare_ops op =
        if op >= Array.length rtl then None
        else if rtl.(op) <> golden.(op) then Some op
        else compare_ops (op + 1)
      in
      match compare_ops 0 with
      | Some op ->
        Error
          (Printf.sprintf "sample %d op %d: RTL %d, dataflow %d" sample op rtl.(op)
             golden.(op))
      | None -> go (sample + 1)
    end
  in
  go 0
