(* `workloads.exe --selftest`: the generators and checks, called as
   functions. Run by `dune build @perfbench/selftest`. *)

module Job = Rb_service.Job
module Outcome = Rb_service.Outcome
module Executor = Rb_service.Executor

let checks = ref 0
let failures = ref 0

let expect name ok =
  incr checks;
  if not ok then begin
    Printf.printf "FAIL %s\n%!" name;
    incr failures
  end

let digests jobs = Array.map Job.digest jobs

(* How many digests repeat an earlier one. *)
let repeats ds =
  let seen = Hashtbl.create (Array.length ds) in
  Array.fold_left
    (fun n d ->
      if Hashtbl.mem seen d then n + 1
      else begin
        Hashtbl.add seen d ();
        n
      end)
    0 ds

let run pool =
  let palette = Streams.bind_palette ~fus_of:(Serve_load.fus_table ()) in
  let cold seed n = Array.init n (Streams.serve_request ~seed ~palette) in
  let hot seed n =
    let p = Streams.hot_palette ~seed ~palette in
    Array.append p (Array.init n (fun i -> p.(Streams.hot_index ~seed (i + Array.length p))))
  in
  let passes f seed = Array.concat (List.init 3 (f ~seed)) in
  let kernel_jobs seed =
    Array.map
      (fun (j : Streams.kernel_job) -> (j.family, j.size, j.kind, j.trace_seed))
      (passes Streams.kernel_pass seed)
  in
  let pure name f =
    expect (name ^ ": same seed, same stream") (f 7 = f 7);
    expect (name ^ ": another seed, another stream") (f 7 <> f 8)
  in
  pure "kernel-scale" kernel_jobs;
  pure "attack" (fun seed -> digests (passes Streams.attack_pass seed));
  pure "serve-cold" (fun seed -> digests (cold seed 2000));
  pure "serve-hot" (fun seed -> digests (hot seed 2000));
  pure "paper-sweep" (fun seed -> List.init 3 (Streams.sweep_seed ~seed));
  let n = 20_000 in
  expect "serve-cold: no job digest repeats" (repeats (digests (cold 1 n)) = 0);
  expect "serve-hot: at least 99% repeats"
    (float_of_int (repeats (digests (hot 1 n)))
     >= 0.99 *. float_of_int (n + Streams.hot_palette_size));
  expect "attack: no job digest repeats"
    (repeats (digests (passes Streams.attack_pass 1)) = 0);
  (* Every bind shape, each under its own trace seed. *)
  let executor = Executor.create ~pool () in
  let binds =
    Array.mapi
      (fun i (b : Streams.bind_shape) ->
        Job.Bind
          { benchmark = b.benchmark; seed = Streams.fresh ~seed:1 ~tag:"selftest" i;
            binder = b.binder; kind = b.bkind; locked_fus = b.fus; minterms_per_fu = b.minterms })
      palette
  in
  let results = Rb_util.Pool.map_array pool ~f:(Executor.run executor) binds in
  expect
    (Printf.sprintf "every bind shape (%d) is feasible" (Array.length palette))
    (Array.for_all Result.is_ok results);
  let attacked outcome = Ok (Outcome.Attacked { description = "d"; stats = "s"; outcome }) in
  expect "attack: Broken with a wrong key counts as failed"
    (Checks.attack_verdict (attacked (Outcome.Broken { iterations = 3; key_correct = false; key = "01" }))
     = Checks.Failed);
  expect "attack: Broken with the right key is decided"
    (Checks.attack_verdict (attacked (Outcome.Broken { iterations = 3; key_correct = true; key = "01" }))
     = Checks.Decided);
  expect "attack: a budget stop is undecided, not failed"
    (Checks.attack_verdict
       (attacked (Outcome.Solver_limit { iterations = 3; reason = Rb_util.Limits.Conflicts }))
     = Checks.Undecided);
  let job = Streams.serve_request ~seed:1 ~palette 0 in
  let line = Rb_service.Serve.respond executor (Serve_load.request_line ~id:41 job) in
  expect "serve: the daemon's answer parses as ok for its id"
    (Checks.response_payload ~id:41 line <> None && Checks.response_payload ~id:42 line = None);
  expect "serve: a re-run renders the daemon's answer byte for byte"
    (match Executor.run (Executor.create ~pool ()) job with
     | Ok o -> Checks.expected_line ~id:41 o = line
     | Error _ -> false);
  Printf.printf "perfbench selftest: %d of %d checks passed\n" (!checks - !failures) !checks;
  if !failures = 0 then 0 else 1
