(* attack: oracle-guided SAT attacks as Job.Attack jobs through the
   service executor, every miter solve capped at 20k conflicts. One
   operation is one job; a pass is 14 jobs over five lock classes (see
   Streams.attack_classes), each with a fresh lock seed, so the store
   never hits. A pass runs as Executor.run_batch does — Executor.run
   per job over the pool — with a span around each run. *)

module Executor = Rb_service.Executor
module Pool = Rb_util.Pool

let conflict_budget = 20_000

let setup pool ~seed =
  let executor = Executor.create ~limit:(Rb_util.Limits.conflicts conflict_budget) ~pool () in
  ignore (Pool.map_array pool ~f:(Executor.run executor) (Streams.attack_warmup ~seed));
  let pass = ref 0 in
  let decided = Atomic.make 0 and undecided = Atomic.make 0 in
  let next_pass () =
    let p = !pass in
    incr pass;
    let jobs = Streams.attack_pass ~seed p in
    let n = Array.length jobs in
    Pool.map_array pool (Array.mapi (fun i j -> (i, j)) jobs) ~f:(fun (i, job) ->
        Spans.with_span ~req:((p * n) + i) "request" (fun parent ->
            let t0 = Measure.now () in
            let r = Spans.with_span ~parent "service.execute" (fun _ -> Executor.run executor job) in
            let lat = Measure.now () -. t0 in
            match Checks.attack_verdict r with
            | Checks.Decided ->
              Atomic.incr decided;
              (lat, true)
            | Checks.Undecided ->
              Atomic.incr undecided;
              (lat, true)
            | Checks.Failed -> (lat, false)))
  in
  let run n =
    Atomic.set decided 0;
    Atomic.set undecided 0;
    let phase = Measure.passes n ~next_pass in
    Printf.eprintf "  verdicts: %d broken with a correct key, %d stopped by the budget\n"
      (Atomic.get decided) (Atomic.get undecided);
    phase
  in
  let decided_frac () =
    let d = Atomic.get decided and u = Atomic.get undecided in
    if d + u = 0 then 0.0 else float_of_int d /. float_of_int (d + u)
  in
  {
    Measure.run;
    verify = (fun () -> 0);
    probe = ignore;
    extras = (fun () -> [ ("attack.decided_frac", decided_frac ()) ]);
    teardown = ignore;
  }

let workload = { Measure.name = "attack"; op_label = "attack"; unit_label = "passes"; units_per_s = 0.7; setup }
