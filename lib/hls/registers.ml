module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule

(* Primary outputs are drained by the output interface in their
   production cycle; banks only hold values for later internal
   consumers. *)
let lifetime schedule p =
  let birth = Schedule.cycle_of schedule p in
  let death =
    List.fold_left
      (fun acc c -> max acc (Schedule.cycle_of schedule c))
      birth
      (Dfg.successors (Schedule.dfg schedule) p)
  in
  (p, birth, death)

let value_lifetimes binding =
  let schedule = Binding.schedule binding in
  List.init (Dfg.op_count (Schedule.dfg schedule)) (lifetime schedule)

(* A value consumed on its producer's FU in the immediately following
   cycle can ride the FU's output latch; it needs no register bank
   slot. Everything else occupies a slot in its producer FU's bank
   from the boundary after its birth until its death. *)
let bypassed binding (p, birth, death) =
  let schedule = Binding.schedule binding in
  let dfg = Schedule.dfg schedule in
  let fu = Binding.fu_of_op binding p in
  death = birth + 1
  && List.for_all (fun c -> Binding.fu_of_op binding c = fu) (Dfg.successors dfg p)

let latch_resident_values binding =
  value_lifetimes binding
  |> List.filter (bypassed binding)
  |> List.map (fun (p, _, _) -> p)

(* Distributed register-file accounting: each FU owns a register bank
   holding the values it produced until their last use; banks are not
   shared between FUs (no global register file and its full crossbar),
   the organization the low-power binding literature [19], [22]
   assumes. Left-edge inside a bank opens a register only when every
   open one holds a live value, so a bank gets exactly its peak overlap
   and the design total is the sum of bank peaks. Summing peaks is what
   makes the metric binding-sensitive: scattering a dependency chain
   across FUs leaves long-lived values in several banks at once, while
   area-aware binding retires each bank's value before the next one is
   born. *)
let allocate binding =
  let schedule = Binding.schedule binding in
  let n_cycles = Schedule.n_cycles schedule in
  let n_fus = Allocation.total (Binding.allocation binding) in
  (* last_death.(fu).(i): death of the latest tenant of bank [fu]'s
     register [i], of which [opened.(fu)] exist; an FU produces at most
     one value per cycle, so a bank never needs more than [n_cycles]. *)
  let last_death = Array.make_matrix n_fus n_cycles 0 and opened = Array.make n_fus 0 in
  let slot = Array.make (Dfg.op_count (Schedule.dfg schedule)) (-1) in
  (* Sweeping births in cycle order places each bank's values by birth. *)
  for birth = 0 to n_cycles - 1 do
    List.iter
      (fun kind ->
        List.iter
          (fun p ->
            let ((_, _, death) as v) = lifetime schedule p in
            if birth < death && not (bypassed binding v) then begin
              let fu = Binding.fu_of_op binding p in
              let bank = last_death.(fu) and n = opened.(fu) in
              let i = ref 0 in
              while !i < n && bank.(!i) > birth do incr i done;
              if !i = n then opened.(fu) <- n + 1;
              bank.(!i) <- death;
              slot.(p) <- !i
            end)
          (Schedule.ops_in_cycle schedule kind birth))
      [ Dfg.Add; Dfg.Mul ]
  done;
  (* number the registers bank by bank in FU order *)
  let base = Array.make (n_fus + 1) 0 in
  Array.iteri (fun fu n -> base.(fu + 1) <- base.(fu) + n) opened;
  ( base.(n_fus),
    Array.mapi
      (fun p i -> if i < 0 then None else Some (base.(Binding.fu_of_op binding p) + i))
      slot )

let count binding = fst (allocate binding)
