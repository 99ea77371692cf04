module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule

let value_lifetimes binding =
  let schedule = Binding.schedule binding in
  let dfg = Schedule.dfg schedule in
  List.init (Dfg.op_count dfg) (fun p ->
      let birth = Schedule.cycle_of schedule p in
      let consumer_death =
        List.fold_left
          (fun acc c -> max acc (Schedule.cycle_of schedule c))
          birth (Dfg.successors dfg p)
      in
      (* Primary outputs are drained by the output interface in their
         production cycle; banks only hold values for later internal
         consumers. *)
      (p, birth, consumer_death))

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
   assumes. The bank of FU f needs its peak overlap of f-produced
   values; the design total is the sum of bank peaks. Summing peaks is
   what makes the metric binding-sensitive: scattering a dependency
   chain across FUs leaves long-lived values in several banks at once,
   while area-aware binding retires each bank's value before the next
   one is born. *)
let count binding =
  let n_cycles = Schedule.n_cycles (Binding.schedule binding) in
  let n_fus = Allocation.total (Binding.allocation binding) in
  (* Per bank, +1 at each value's birth boundary and -1 at its death:
     the running sum at boundary [b] is the bank's occupancy there. *)
  let delta = Array.make_matrix n_fus (n_cycles + 1) 0 in
  List.iter
    (fun ((p, birth, death) as v) ->
      if birth < death && not (bypassed binding v) then begin
        let d = delta.(Binding.fu_of_op binding p) in
        d.(birth) <- d.(birth) + 1;
        d.(death) <- d.(death) - 1
      end)
    (value_lifetimes binding);
  Array.fold_left
    (fun total d ->
      let live = ref 0 and peak = ref 0 in
      for b = 0 to n_cycles - 1 do
        live := !live + d.(b);
        if !live > !peak then peak := !live
      done;
      total + !peak)
    0 delta
