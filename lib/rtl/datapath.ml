module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Binding = Rb_hls.Binding
module Registers = Rb_hls.Registers

type source =
  | From_input of string
  | From_const of int
  | From_fu of int
  | From_register of int

type issue = {
  op : Dfg.op_id;
  fu : int;
  cycle : int;
  lhs_src : source;
  rhs_src : source;
}

type write = { register : int; cycle : int; fu : int; op : Dfg.op_id }

type t = {
  binding : Binding.t;
  n_registers : int;
  issues : issue list;
  writes : write list;
  register_of : int option array; (* op id -> register *)
}

let build binding =
  let schedule = Binding.schedule binding in
  let dfg = Schedule.dfg schedule in
  let n_ops = Dfg.op_count dfg in
  let is_bypassed = Array.make n_ops false in
  List.iter (fun p -> is_bypassed.(p) <- true) (Registers.latch_resident_values binding);
  let n_registers, register_of = Registers.allocate binding in
  let operand_source op_id operand =
    match (operand : Dfg.operand) with
    | Dfg.Input name -> From_input name
    | Dfg.Const c -> From_const c
    | Dfg.Op p ->
      (match register_of.(p) with
       | Some reg -> From_register reg
       | None ->
         (* latch bypass: the producer's FU still holds the value *)
         if not is_bypassed.(p) then
           invalid_arg
             (Printf.sprintf "Datapath.build: op %d reads unregistered dead value %d"
                op_id p);
         From_fu (Binding.fu_of_op binding p))
  in
  let issues =
    List.init n_ops (fun op ->
        let node = Dfg.op dfg op in
        {
          op;
          fu = Binding.fu_of_op binding op;
          cycle = Schedule.cycle_of schedule op;
          lhs_src = operand_source op node.Dfg.lhs;
          rhs_src = operand_source op node.Dfg.rhs;
        })
    |> List.sort (fun (a : issue) (b : issue) ->
           match Int.compare a.cycle b.cycle with
           | 0 -> Int.compare a.fu b.fu
           | c -> c)
  in
  let writes =
    List.filter_map
      (fun p ->
        match register_of.(p) with
        | Some register ->
          let cycle = Schedule.cycle_of schedule p in
          Some { register; cycle; fu = Binding.fu_of_op binding p; op = p }
        | None -> None)
      (List.init n_ops Fun.id)
    |> List.sort (fun (a : write) (b : write) ->
           match Int.compare a.cycle b.cycle with
           | 0 -> Int.compare a.register b.register
           | c -> c)
  in
  { binding; n_registers; issues; writes; register_of }

let binding t = t.binding
let n_registers t = t.n_registers
let issues t = t.issues
let writes t = t.writes
let register_of_value t op = t.register_of.(op)

let mux_inputs t =
  let ports = Hashtbl.create 32 in
  let note fu side src =
    let key = (fu, side) in
    let sources = Option.value (Hashtbl.find_opt ports key) ~default:[] in
    if not (List.mem src sources) then Hashtbl.replace ports key (src :: sources)
  in
  List.iter
    (fun (i : issue) ->
      note i.fu `L i.lhs_src;
      note i.fu `R i.rhs_src)
    t.issues;
  Hashtbl.fold (fun _ sources acc -> acc + max 0 (List.length sources - 1)) ports 0

let validate t =
  let schedule = Binding.schedule t.binding in
  let dfg = Schedule.dfg schedule in
  let n_ops = Dfg.op_count dfg in
  (* register contents over time: register -> (cycle, op) writes *)
  let write_conflict =
    let seen = Hashtbl.create 32 in
    List.find_opt
      (fun w ->
        let key = (w.register, w.cycle) in
        if Hashtbl.mem seen key then true
        else begin
          Hashtbl.add seen key ();
          false
        end)
      t.writes
  in
  let last_write_before register cycle =
    List.fold_left
      (fun acc w ->
        if w.register = register && w.cycle < cycle then
          match acc with
          | Some prev when prev.cycle >= w.cycle -> acc
          | Some _ | None -> Some w
        else acc)
      None t.writes
  in
  let last_issue_on_fu_before fu cycle =
    List.fold_left
      (fun (acc : issue option) (i : issue) ->
        if i.fu = fu && i.cycle < cycle then
          match acc with
          | Some prev when prev.cycle >= i.cycle -> acc
          | Some _ | None -> Some i
        else acc)
      None t.issues
  in
  let check_source (issue : issue) expected src =
    match (expected : Dfg.operand), (src : source) with
    | Dfg.Input n1, From_input n2 when n1 = n2 -> Ok ()
    | Dfg.Const c1, From_const c2 when c1 = c2 -> Ok ()
    | Dfg.Op p, From_register r ->
      (match last_write_before r issue.cycle with
       | Some w when w.op = p -> Ok ()
       | Some w ->
         Error
           (Printf.sprintf "op %d reads r%d holding op %d, wanted op %d" issue.op r w.op p)
       | None -> Error (Printf.sprintf "op %d reads never-written r%d" issue.op r))
    | Dfg.Op p, From_fu fu ->
      (match last_issue_on_fu_before fu issue.cycle with
       | Some i when i.op = p -> Ok ()
       | Some i ->
         Error
           (Printf.sprintf "op %d reads FU%d latch holding op %d, wanted op %d" issue.op
              fu i.op p)
       | None -> Error (Printf.sprintf "op %d reads idle FU%d latch" issue.op fu))
    | (Dfg.Input _ | Dfg.Const _ | Dfg.Op _), _ ->
      Error (Printf.sprintf "op %d source mismatch" issue.op)
  in
  let rec check_issues : issue list -> (unit, string) result = function
    | [] -> Ok ()
    | issue :: rest ->
      let node = Dfg.op dfg issue.op in
      (match check_source issue node.Dfg.lhs issue.lhs_src with
       | Error _ as e -> e
       | Ok () ->
         (match check_source issue node.Dfg.rhs issue.rhs_src with
          | Error _ as e -> e
          | Ok () -> check_issues rest))
  in
  match write_conflict with
  | Some w -> Error (Printf.sprintf "double write to r%d in cycle %d" w.register w.cycle)
  | None ->
    if List.length t.issues <> n_ops then Error "issue count mismatch"
    else check_issues t.issues
