(* The workloads' inputs, each a pure function of the run seed (and of
   feasibility facts computed from the fixed benchmark registry). The
   seed varies the data — traces, lock keys, sampled combinations — but
   never the mix of work, so runs under different seeds measure the same
   workload. Pass-based streams list their work heaviest first, which
   keeps the idle tail at the end of a pass short on the 2-domain pool. *)

module Dfg = Rb_dfg.Dfg
module Job = Rb_service.Job
module Rng = Rb_util.Rng

(* A sub-seed for one position of one stream: positive and small enough
   for every seeded library call. *)
let mix parts = Hashtbl.hash parts land 0x3FFF_FFFF

(* A seed no other request of the run uses: distinct positions give
   distinct seeds, so distinct job digests. *)
let fresh ~seed ~tag i = ((mix (seed, tag) land 0xFFFF) lsl 24) + i

(* ------------------------------------------------------- paper-sweep *)

(* A fixed subset of the paper's (benchmark, kind) pairs, each swept on
   its typical trace, heaviest first. dct's multipliers take about as
   long as the three others together, so both domains stay busy; one
   pass takes about 4.5 s. The latency of a pair is the wait for one
   sweep_suite task, and the mix puts the median among the three light
   pairs and the 90th percentile on the heavy one. The seed of each
   pass's sweep draws the combinations sampled from spaces larger than
   2000. *)
let sweep_pairs = [ ("dct", Dfg.Mul); ("fir", Dfg.Mul); ("jdmerge1", Dfg.Add); ("jdmerge1", Dfg.Mul) ]

let sweep_seed ~seed pass = mix (seed, "paper-sweep", pass)

(* ------------------------------------------------------ kernel-scale *)

(* Parametric kernels of 1k-9k operations, heaviest first. Five of the
   16 jobs of a pass take 0.12-0.14 s, which puts the median inside that
   group; the two fft512 jobs hold the 90th percentile. *)
let kernels =
  [ ("fft", 512); ("dct", 64); ("fft", 256); ("fft", 128); ("conv", 64); ("aes", 8);
    ("dct", 32); ("conv", 32) ]

type kernel_job = { family : string; size : int; kind : Dfg.op_kind; trace_seed : int }

let kernel_pass ~seed pass =
  List.concat_map
    (fun (family, size) ->
      List.map
        (fun kind ->
          { family; size; kind;
            trace_seed = mix (seed, "kernel-scale", pass, family, size, Dfg.kind_label kind) })
        [ Dfg.Add; Dfg.Mul ])
    kernels
  |> Array.of_list

(* ------------------------------------------------------------ attack *)

(* One pass, heaviest first. Every class has a steady cost under a
   fresh key: 6-layer permutation networks stop at the conflict budget
   (undecided); the others are broken. Point functions with wider
   inputs, 2 locked minterms or 4-5 network layers were left out: how
   many DIPs they need swings tenfold with the key. *)
let attack_shapes =
  List.map (fun w -> (Job.Permnet, w, 6)) [ 4; 5; 6; 7 ]
  @ [ (Job.Rll, 8, 32); (Job.Rll, 8, 32); (Job.Permnet, 8, 3); (Job.Permnet, 8, 3) ]
  @ List.map (fun w -> (Job.Rll, w, 4 * w)) [ 4; 5; 6; 7 ]
  @ [ (Job.Pf, 4, 1); (Job.Pf, 5, 1) ]

let attack_job ~seed ~tag i (scheme, width, strength) =
  Job.Attack
    { scheme; width; strength; seed = fresh ~seed ~tag i; max_iterations = 20_000;
      portfolio = 1 }

let attack_pass ~seed pass =
  let n = List.length attack_shapes in
  Array.of_list (List.mapi (fun i -> attack_job ~seed ~tag:"attack" ((pass * n) + i)) attack_shapes)

(* Set-up warms the executor with the RLL jobs of a pass, under seeds
   the measured stream never uses. *)
let attack_warmup ~seed =
  Array.of_list
    (List.mapi (attack_job ~seed ~tag:"attack-warmup")
       (List.filter (fun (scheme, _, _) -> scheme = Job.Rll) attack_shapes))

(* ------------------------------------------------------------- serve *)

type bind_shape = {
  benchmark : string;
  binder : string;
  bkind : Dfg.op_kind;
  fus : int;
  minterms : int;
}

let binders = [ "area"; "power"; "obf"; "codesign" ]

(* Every bind shape the allocation can serve: [fus_of benchmark kind] is
   the number of FUs the benchmark's schedule allocates for the kind.
   Candidate lists hold 10 minterms, so 1-3 minterms always fit. The
   shapes come in a fixed shuffled order, so that any run of them spans
   the benchmarks. *)
let bind_palette ~fus_of =
  let shapes =
    List.concat_map
      (fun benchmark ->
        List.concat_map
          (fun binder ->
            List.concat_map
              (fun bkind ->
                List.concat_map
                  (fun fus ->
                    if fus > fus_of benchmark bkind then []
                    else
                      List.map
                        (fun minterms -> { benchmark; binder; bkind; fus; minterms })
                        [ 1; 2; 3 ])
                  [ 1; 2; 3 ])
              [ Dfg.Add; Dfg.Mul ])
          binders)
      (Rb_workload.Benchmark.names ())
    |> Array.of_list
  in
  Rng.shuffle (Rng.create 2021) shapes;
  shapes

(* Each block of 10 requests holds 5 binds and one each of show, lint,
   analyze, a small attack and export-cnf, in a seeded order. What each
   request asks for cycles through fixed lists by block, so every run
   has the same mix; the seed picks the order within blocks and the
   seed inside every job — traces, keys, locked minterms. *)
let block_slots = [| `Bind; `Bind; `Bind; `Bind; `Bind; `Show; `Lint; `Analyze; `Attack; `Export |]

let serve_request ~seed ~palette i =
  let block = i / 10 in
  let order = Array.copy block_slots in
  Rng.shuffle (Rng.create (mix (seed, "serve-block", block))) order;
  let job_seed = fresh ~seed ~tag:"serve" i in
  let cycle a k = a.(k mod Array.length a) in
  let benchmark k = cycle (Array.of_list (Rb_workload.Benchmark.names ())) k in
  match order.(i mod 10) with
  | `Bind ->
    (* the rank of this bind among its block's five *)
    let rank = ref 0 in
    for j = 0 to (i mod 10) - 1 do
      if order.(j) = `Bind then incr rank
    done;
    let b = cycle palette ((5 * block) + !rank) in
    Job.Bind
      { benchmark = b.benchmark; seed = job_seed; binder = b.binder; kind = b.bkind;
        locked_fus = b.fus; minterms_per_fu = b.minterms }
  | `Show -> Job.Show { benchmark = benchmark block; seed = job_seed }
  | `Lint ->
    Job.Lint
      { benchmark = Some (benchmark (block + 5)); seed = job_seed; locked_fus = 2;
        minterms_per_fu = 2; min_lambda = None }
  | `Analyze ->
    Job.Analyze
      { scheme = Some (cycle [| Job.Rll; Job.Pf; Job.Antisat; Job.Permnet |] block);
        width = 3 + (block / 4 mod 2); strength = 1 + (block / 8 mod 2); seed = job_seed }
  | `Attack ->
    let scheme, strength = cycle [| (Job.Rll, 6); (Job.Pf, 1); (Job.Permnet, 2) |] block in
    Job.Attack
      { scheme; width = 3; strength; seed = job_seed; max_iterations = 20_000;
        portfolio = 1 }
  | `Export ->
    Job.Export_cnf
      { scheme = cycle [| Job.Rll; Job.Pf; Job.Permnet |] block; width = 4; strength = 2;
        miter = block / 3 mod 2 = 0; seed = job_seed }

(* serve-hot replays a palette of 64 jobs drawn like serve-cold's. *)
let hot_palette_size = 64

let hot_palette ~seed ~palette =
  Array.init hot_palette_size (serve_request ~seed:(mix (seed, "serve-hot")) ~palette)

let hot_index ~seed i = Rng.int (Rng.create (mix (seed, "serve-hot", i))) hot_palette_size
