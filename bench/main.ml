(* The evaluation harness: regenerates every table and figure of the
   paper's Sec. VI (plus the analytical/gate-level results it builds
   on), and ends with Bechamel runtime microbenches of each registered
   binder.

   Experiment sections are split compute/render: Rb_core.Experiments
   and Rb_core.Ablation produce records (fanned out over the worker
   pool), Rb_core.Render turns them into the tables printed here. All
   tables go to stdout and are byte-identical for any --jobs value;
   per-section wall-clock goes to stderr.

   Usage:
     main.exe [--jobs N] [--sections a,b,...] [--list-sections]
              [--metrics FILE] [--solver-budget N] [SECTION...]

     --jobs N        worker domains (default: available cores; 1 = no
                     worker domains, everything runs inline)
     --sections ...  comma-separated subset to run (same as naming
                     sections positionally)
     --list-sections print the section names and exit
     --metrics FILE  write a machine-readable BENCH.json: one record
                     per section (name, wall-clock, deterministic
                     counter deltas) plus the full end-of-run metric
                     snapshot; bench/compare.exe diffs two such files
     --solver-budget N  cap every SAT-attack miter solve at N CDCL
                     conflicts; exhausted cells render as
                     "limit:<reason>@<iterations>" instead of hanging

   Rb_util.Metrics collection is always on here: per-section
   wall-clock is reported once, in section order, on stderr after the
   run (never interleaved into section output), and stdout stays
   byte-identical across --jobs values because only deterministic
   counters — never timings — feed anything printed there. *)

module Dfg = Rb_dfg.Dfg
module Workload = Rb_workload.Benchmark
module Kmatrix = Rb_sim.Kmatrix
module Allocation = Rb_hls.Allocation
module Binders = Rb_core.Binders
module Experiments = Rb_core.Experiments
module Ablation = Rb_core.Ablation
module Render = Rb_core.Render
module Codesign = Rb_core.Codesign
module Methodology = Rb_core.Methodology
module Resilience = Rb_locking.Resilience
module Scheme = Rb_locking.Scheme
module Lock = Rb_netlist.Lock
module Circuits = Rb_netlist.Circuits
module Netlist = Rb_netlist.Netlist
module Attack = Rb_sat.Attack
module Solver = Rb_sat.Solver
module Table = Rb_util.Table
module Rng = Rb_util.Rng
module Pool = Rb_util.Pool
module Metrics = Rb_util.Metrics
module Json = Rb_util.Json
module Limits = Rb_util.Limits

let section name =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') name (String.make 72 '=')

(* ------------------------------------------------- experiment sections *)

(* Sections built around the shared pool: contexts and the
   configuration sweep are computed once (lazily, in parallel) and
   reused by every section that needs them. *)
let experiment_sections pool =
  let contexts =
    lazy
      (Pool.map_list pool
         ~f:(fun b ->
           let schedule = Workload.schedule b in
           let trace = Workload.trace b in
           Experiments.context ~name:b.Workload.name schedule trace)
         (Workload.all ()))
  in
  let suite =
    lazy
      (Experiments.sweep_suite ~pool ~max_combos_per_config:2000
         ~max_optimal_assignments:200_000 (Lazy.force contexts))
  in
  let fig4 () =
    section
      "Fig. 4 - increase in application errors of locking under security-aware\n\
       binding, vs area-aware [20] and power-aware [19] binding with identical\n\
       locking configurations (mean over {1,2,3} locked FUs x {1,2,3} locked\n\
       inputs x candidate-input combinations; log-scale bars)";
    print_string
      (Render.fig4
         ~rows:(Experiments.fig4_rows (Lazy.force suite))
         ~concentrations:(Experiments.concentrations (Lazy.force contexts)))
  in
  let fig5 () =
    section
      "Fig. 5 - error increase vs locking configuration (pooled over all\n\
       benchmarks and kinds; co-design = P-time heuristic, as in the paper)";
    let s = Lazy.force suite in
    print_string
      (Render.fig5
         ~cells:(Experiments.fig5_cells (Experiments.pooled_results s))
         ~reduced:(Experiments.reduced_optimal_runs s))
  in
  let fig6 () =
    section
      "Fig. 6 - design overhead of security-aware binding (registers vs the\n\
       register-minimizing binder; switching rate vs the switching-minimizing\n\
       binder), averaged over the locking-configuration sweep";
    print_string
      (Render.fig6 (Experiments.overhead_suite ~pool ~combos_per_config:8
                      (Lazy.force contexts)))
  in
  let headline () =
    section "Headline numbers (paper abstract: 26x and 99x; heuristic within 0.5%)";
    print_string (Render.headline (Experiments.headline (Lazy.force suite)))
  in
  let quality () =
    section
      "Error quality (Sec. III) - measured wrong-key corruption of one\n\
       co-designed locking configuration (2 FUs x 2 minterms) replayed through\n\
       the trace simulator under the area-aware baseline binding and under the\n\
       co-designed binding";
    let trace_of ctx = Workload.trace (Workload.find ctx.Experiments.benchmark) in
    print_string
      (Render.quality (Experiments.quality_suite ~pool ~trace_of (Lazy.force contexts)))
  in
  let postlock () =
    section
      "Post-binding locking (the abstract's closing claim) - at a fixed 32-bit\n\
       key budget, the minterms each approach must lock to reach the SAME\n\
       application-error level, and the Eqn. 1 resilience it is left with";
    print_string
      (Render.post_binding (Experiments.post_binding_suite ~pool (Lazy.force contexts)))
  in
  let ablation () =
    section
      "Ablations - design knobs the paper leaves open, quantified\n\
       (candidate selection, Sec. V-B.1; workload generalization; profiling\n\
       budget; allocation and scheduler sensitivity)";
    let ctx_named name =
      List.find (fun c -> c.Experiments.benchmark = name) (Lazy.force contexts)
    in
    let strategies =
      List.map
        (fun (name, kind) ->
          (name, kind, Ablation.candidate_strategies (ctx_named name) kind))
        [ ("dct", Dfg.Mul); ("ecb_enc4", Dfg.Add); ("fft", Dfg.Add) ]
    in
    let generalization =
      Pool.map_list pool
        ~f:(fun (name, kind) ->
          let b = Workload.find name in
          ( name, kind,
            Ablation.generalization (Workload.schedule b) (Workload.trace b) kind ))
        [ ("dct", Dfg.Mul); ("fir", Dfg.Add); ("jdmerge3", Dfg.Add);
          ("motion3", Dfg.Add) ]
    in
    let dct = Workload.find "dct" in
    let budget =
      Ablation.profiling_budget (Workload.schedule dct) (Workload.trace dct) Dfg.Mul
    in
    let make_trace () = Workload.trace dct in
    let sensitivity =
      Ablation.allocation_sensitivity dct.Workload.dfg make_trace
      @ Ablation.scheduler_sensitivity dct.Workload.dfg make_trace
    in
    print_string
      (Render.ablation ~strategies ~generalization
         ~budget_title:
           "profiling-budget sensitivity (dct multipliers, replayed on 256 samples)"
         ~budget
         ~sensitivity_title:"sensitivity of the obf-aware error increase (dct, adders)"
         ~sensitivity)
  in
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("headline", headline);
    ("quality", quality);
    ("postlock", postlock);
    ("ablation", ablation);
  ]

(* ----------------------------------------------------------------- eqn1 *)

let eqn1 () =
  section
    "Eqn. 1 - expected SAT-attack iterations vs locked-input count\n\
     (16-bit FU input space, 1 correct key; 'inf' = attack not expected to\n\
     converge because a DIP eliminates < 1 wrong key in expectation)";
  let minterm_counts = [ 1; 2; 3; 8; 64; 1024; 16384 ] in
  let table =
    Table.create ~title:"lambda(key bits, locked inputs)"
      ~columns:(List.map string_of_int minterm_counts)
  in
  List.iter
    (fun key_bits ->
      let cells =
        List.map
          (fun minterms ->
            let l =
              Resilience.lambda_minterms ~key_bits ~correct_keys:1 ~input_bits:16
                ~minterms
            in
            if l = infinity then "inf" else Printf.sprintf "%.0f" l)
          minterm_counts
      in
      Table.add_text_row table ~label:(Printf.sprintf "%d-bit key" key_bits) ~cells)
    [ 16; 17; 20; 24; 32; 48 ];
  Table.print table;
  print_newline ();
  let budget =
    Resilience.max_minterms_for ~key_bits:20 ~correct_keys:1 ~input_bits:16
      ~min_lambda:10_000.0
  in
  Printf.printf
    "Resilience budget example: a 20-bit key targeting >= 10^4 iterations may\n\
     lock at most %d minterms - the budget the binding algorithms then spend.\n"
    budget

(* ------------------------------------------------------------ sat-attack *)

let sat_attack ~limit () =
  section
    "SAT attack (Sec. II) - measured DIP iterations on locked adders, next to\n\
     the Eqn. 1 prediction; the corruption/resilience trade-off, empirically";
  let table =
    Table.create ~title:"oracle-guided attack [10] (incremental CDCL, one solver per attack)"
      ~columns:
        [ "inputs"; "key bits"; "locked minterms"; "iterations"; "Eqn.1 lambda";
          "conflicts"; "gates" ]
  in
  (* Solver effort is reported as CDCL conflicts, not seconds: conflicts
     are a deterministic work count (identical for every --jobs value and
     machine), so this table stays byte-comparable; wall-clock lives in
     the sat/solve timer of the metrics snapshot. *)
  let m_conflicts = Metrics.counter ~scope:"sat" "conflicts" in
  let rng = Rng.create 424242 in
  let attack_case ~label ~base ~locked ~epsilon_minterms =
    let n_in = Netlist.n_inputs base in
    let key_bits = Netlist.n_keys locked.Lock.circuit in
    let c0 = Metrics.counter_value m_conflicts in
    let iterations =
      match Attack.attack_locked ~max_iterations:20_000 ~limit locked with
      | Attack.Broken { key; iterations } ->
        assert (Attack.key_is_correct locked key);
        string_of_int iterations
      | Attack.Budget_exceeded { iterations } -> Printf.sprintf ">%d" iterations
      (* Budget-exhausted cells are marked, not dropped: the row keeps
         its place in the table and says why the number is partial. *)
      | Attack.Solver_limit { iterations; reason } ->
        Printf.sprintf "limit:%s@%d" (Limits.reason_label reason) iterations
    in
    let conflicts = Metrics.counter_value m_conflicts - c0 in
    let lambda =
      match epsilon_minterms with
      | None -> "-"
      | Some m ->
        let l =
          Resilience.lambda_minterms ~key_bits ~correct_keys:1 ~input_bits:n_in
            ~minterms:m
        in
        if l = infinity then "inf" else Printf.sprintf "%.0f" l
    in
    Table.add_text_row table ~label
      ~cells:
        [
          string_of_int n_in;
          string_of_int key_bits;
          (match epsilon_minterms with None -> "~half space" | Some m -> string_of_int m);
          iterations;
          lambda;
          string_of_int conflicts;
          string_of_int (Netlist.n_gates locked.Lock.circuit);
        ]
  in
  List.iter
    (fun width ->
      let base = Circuits.adder ~width in
      attack_case
        ~label:(Printf.sprintf "RLL, %d-bit adder" width)
        ~base
        ~locked:(Lock.xor_random ~rng ~key_bits:(2 * width) base)
        ~epsilon_minterms:None;
      let space = 1 lsl (2 * width) in
      List.iter
        (fun h ->
          let minterms = List.init h (fun _ -> Rng.int rng space) in
          attack_case
            ~label:(Printf.sprintf "point function h=%d, %d-bit adder" h width)
            ~base
            ~locked:(Lock.point_function ~minterms base)
            ~epsilon_minterms:(Some h))
        [ 1; 2 ];
      attack_case
        ~label:(Printf.sprintf "permnet 4 layers, %d-bit adder" width)
        ~base
        ~locked:(Lock.permutation_network ~rng ~layers:4 base)
        ~epsilon_minterms:None)
    [ 3; 4; 5 ];
  Table.print table;
  (* The approximate attack (Shamsi et al. [12], AppSAT-style): what an
     attacker gets by stopping early. *)
  let approx =
    Table.create
      ~title:"approximate attack: 10-DIP budget + random queries (4-bit adder)"
      ~columns:[ "exact convergence"; "residual error rate" ]
  in
  let approx_case label locked =
    let outcome = Attack.approximate ~dip_budget:10 ~limit locked in
    Table.add_text_row approx ~label
      ~cells:
        [
          (if outcome.Attack.converged then "yes" else "no");
          Printf.sprintf "%.3f" outcome.Attack.estimated_error_rate;
        ]
  in
  let base = Circuits.adder ~width:4 in
  approx_case "RLL, 16 key bits" (Lock.xor_random ~rng ~key_bits:16 base);
  approx_case "point function h=1" (Lock.point_function ~minterms:[ 0x42 ] base);
  approx_case "point function h=3"
    (Lock.point_function ~minterms:[ 0x42; 0x17; 0xA5 ] base);
  print_newline ();
  Table.print approx;
  Printf.printf
    "\nThe approximate attacker settles for a key with tiny residual error -\n\
     exactly the argument ([12], Sec. I) for injecting errors the application\n\
     actually feels, which is what security-aware binding buys.\n";
  Printf.printf
    "\nShape check: RLL falls in a handful of DIPs; point functions cost the\n\
     attacker far more queries per locked minterm (and Eqn. 1 tracks the\n\
     growth); the permutation network's resilience lies in solver effort\n\
     (conflicts) per iteration and gate overhead, not DIP count - why Sec. V-C\n\
     treats it as a costly top-up, not a primary scheme.\n"

(* ----------------------------------------------------- attack-portfolio *)

(* Portfolio determinism demonstrated, not just claimed: every case runs
   twice — portfolio 1 inline, then portfolio 4 racing on the pool — and
   the table's last column checks the full observable result (outcome,
   recovered key, AND the DIP sequence via the on_dip hook) for equality.
   Member 0 owns the DIP sequence and the key is the canonical lex-min
   consistent one, so "identical" is a contract, not luck. *)
let attack_portfolio ~pool ~limit () =
  section
    "Portfolio SAT attack - diversified solver configurations race each miter\n\
     round with clause sharing; the deterministic-result contract in action\n\
     (same DIPs, same key, at every portfolio size; racing walls on stderr)";
  let table =
    Table.create ~title:"incremental attack: portfolio 1 (reference) vs 4 (racing)"
      ~columns:[ "key bits"; "iterations"; "recovered key"; "portfolio-4 result" ]
  in
  let p1_wall = ref 0.0 in
  let p4_wall = ref 0.0 in
  let run ?pool ~portfolio ~wall locked =
    let dips = ref [] in
    let t0 = Metrics.now_s () in
    let outcome =
      Attack.attack_locked ~max_iterations:20_000 ~limit ?pool ~portfolio
        ~on_dip:(fun d -> dips := d :: !dips)
        locked
    in
    wall := !wall +. (Metrics.now_s () -. t0);
    (outcome, List.rev !dips)
  in
  let case ~label locked =
    let key_bits = Netlist.n_keys locked.Lock.circuit in
    let reference = run ~portfolio:1 ~wall:p1_wall locked in
    (* The racing run's solver counters (sat/* work, imported clauses)
       depend on which member wins each round, so they are suspended to
       keep the regression-gated counter snapshot deterministic. *)
    Metrics.set_enabled false;
    let racing =
      Fun.protect
        ~finally:(fun () -> Metrics.set_enabled true)
        (fun () -> run ~pool ~portfolio:4 ~wall:p4_wall locked)
    in
    let iterations, key =
      match fst reference with
      | Attack.Broken { iterations; key } ->
        ( string_of_int iterations,
          String.init (Array.length key) (fun i -> if key.(i) then '1' else '0') )
      | Attack.Budget_exceeded { iterations } -> (Printf.sprintf ">%d" iterations, "-")
      | Attack.Solver_limit { iterations; reason } ->
        (Printf.sprintf "limit:%s@%d" (Limits.reason_label reason) iterations, "-")
    in
    Table.add_text_row table ~label
      ~cells:
        [
          string_of_int key_bits;
          iterations;
          key;
          (if reference = racing then "identical" else "DIVERGED");
        ]
  in
  let rng = Rng.create 98765 in
  let base4 = Circuits.adder ~width:4 in
  let base5 = Circuits.adder ~width:5 in
  case ~label:"RLL, 5-bit adder" (Lock.xor_random ~rng ~key_bits:10 base5);
  case ~label:"point function h=1, 4-bit adder"
    (Lock.point_function ~minterms:[ Rng.int rng 256 ] base4);
  case ~label:"point function h=2, 4-bit adder"
    (Lock.point_function ~minterms:[ Rng.int rng 256; Rng.int rng 256 ] base4);
  case ~label:"point function h=1, 5-bit adder"
    (Lock.point_function ~minterms:[ Rng.int rng 1024 ] base5);
  case ~label:"permnet 4 layers, 4-bit adder"
    (Lock.permutation_network ~rng ~layers:4 base4);
  Table.print table;
  Printf.printf
    "\nBoth columns of every row came from the same circuit attacked at two\n\
     parallelism settings: member 0 owns the DIP sequence (helpers only race\n\
     UNSAT proofs and share clauses), and the recovered key is the\n\
     lexicographically smallest consistent one - so the report bytes cannot\n\
     depend on which racing member happens to win a round.\n";
  let speedup = if !p4_wall > 0.0 then !p1_wall /. !p4_wall else 1.0 in
  Metrics.set_gauge (Metrics.gauge ~scope:"runtime" "attack portfolio-1 wall-s") !p1_wall;
  Metrics.set_gauge (Metrics.gauge ~scope:"runtime" "attack portfolio-4 wall-s") !p4_wall;
  Metrics.set_gauge (Metrics.gauge ~scope:"runtime" "attack portfolio speedup") speedup;
  Printf.eprintf "  [attack-portfolio: p1 %.2fs, p4 %.2fs, %.2fx]\n" !p1_wall !p4_wall
    speedup

(* ----------------------------------------------------------- analysis *)

let static_analysis () =
  section
    "Static analysis - the oracle-less attacker: per-scheme vulnerability of the\n\
     lock-scheme zoo under constant-propagation key inference, probability\n\
     profiling and structural removal (no oracle queries at all)";
  let table =
    Table.create ~title:"oracle-less battery (Rb_analysis, fixed seed)"
      ~columns:
        [ "keys"; "inferable"; "recovered"; "skewed"; "dead"; "SCCs"; "removed";
          "static-res" ]
  in
  let analyze_case ~label ?correct_key circuit =
    let r = Rb_analysis.Report.analyze ~subject:label circuit in
    (* "recovered" scores the inferred values against the known correct
       key: inference is only an attack if the bits are right. *)
    let recovered =
      match correct_key with
      | None -> "-"
      | Some key ->
        let right =
          List.length
            (List.filter
               (fun (i : Rb_analysis.Attacks.inference) ->
                 key.(i.Rb_analysis.Attacks.bit) = i.Rb_analysis.Attacks.value)
               r.Rb_analysis.Report.inferable)
        in
        Printf.sprintf "%d/%d" right (Array.length key)
    in
    Table.add_text_row table ~label
      ~cells:
        [
          string_of_int r.Rb_analysis.Report.n_keys;
          string_of_int (List.length r.Rb_analysis.Report.inferable);
          recovered;
          string_of_int (List.length r.Rb_analysis.Report.skewed);
          string_of_int r.Rb_analysis.Report.dead_gates;
          string_of_int r.Rb_analysis.Report.cycles;
          string_of_int r.Rb_analysis.Report.gates_removed;
          Printf.sprintf "%.2f" r.Rb_analysis.Report.static_resilience;
        ]
  in
  let rng = Rng.create 31337 in
  let base = Circuits.adder ~width:4 in
  let locked_case ~label (locked : Lock.locked) =
    analyze_case ~label ~correct_key:locked.Lock.correct_key locked.Lock.circuit
  in
  locked_case ~label:"RLL, 8 key bits" (Lock.xor_random ~rng ~key_bits:8 base);
  let space = 1 lsl 8 in
  locked_case ~label:"point function h=2"
    (Lock.point_function ~minterms:[ Rng.int rng space; Rng.int rng space ] base);
  locked_case ~label:"anti-SAT" (Lock.anti_sat ~rng base);
  locked_case ~label:"permnet 3 layers"
    (Lock.permutation_network ~rng ~layers:3 base);
  (* A deliberately cyclic circuit (SRCLock-flavoured): the engine must
     report the SCC instead of diverging. Gate nets start at 2 here
     (1 input + 1 key): gate 0 reads gate 1's net and vice versa. *)
  let cyclic =
    Netlist.unchecked ~n_inputs:1 ~n_keys:1
      ~gates:[| Netlist.And (3, 0); Netlist.Or (2, 1) |]
      ~outputs:[| 3 |]
  in
  analyze_case ~label:"cyclic fixture (unchecked)" cyclic;
  Table.print table;
  Printf.printf
    "\nRLL falls without a single oracle query - every XOR/XNOR repair gate\n\
     betrays its polarity, and removal strips the lock clean. The SAT-hard\n\
     schemes (point function, anti-SAT, permnet) expose no key bits to the\n\
     static battery: their key logic is comparator-shaped, which constant\n\
     propagation cannot pierce - the structural complement of the Eqn. 1\n\
     oracle-resilience the sat-attack section measures.\n"

(* ------------------------------------------------------- solver-bench *)

(* CDCL microbench: pinned CNF instances solved inline, never on the
   pool. Random 3-SAT around the phase-transition ratio exercises the
   search heuristics (VSIDS, restarts, phase saving); pigeonhole
   instances force deep resolution proofs and so exercise conflict
   analysis and the learnt database. Everything is generated from
   fixed seeds and solved by the (deterministic) solver, so the table
   of work counters is byte-identical on every machine and --jobs
   value; wall-clock and propagations/second go to stderr and the
   runtime gauges, where the perf gate and dashboards look for them. *)

let add_random_3sat s rng ~nvars ~nclauses =
  ignore (Solver.new_vars s nvars);
  for _ = 1 to nclauses do
    let rec pick_distinct () =
      let a = 1 + Rng.int rng nvars in
      let b = 1 + Rng.int rng nvars in
      let c = 1 + Rng.int rng nvars in
      if a = b || b = c || a = c then pick_distinct () else (a, b, c)
    in
    let a, b, c = pick_distinct () in
    let sign x = if Rng.bool rng then x else -x in
    Solver.add_clause s [ sign a; sign b; sign c ]
  done

(* [holes + 1] pigeons into [holes] holes: unsatisfiable, with only
   exponential-size resolution proofs. Variable p*holes+h+1 means
   "pigeon p sits in hole h". *)
let add_pigeonhole s ~holes =
  let pigeons = holes + 1 in
  ignore (Solver.new_vars s (pigeons * holes));
  let v p h = (p * holes) + h + 1 in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> v p h))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for q = p + 1 to pigeons - 1 do
        Solver.add_clause s [ -v p h; -v q h ]
      done
    done
  done

let solver_bench () =
  section
    "CDCL solver microbench - pinned instances, inline; the table shows\n\
     deterministic work counters only (wall-clock goes to stderr)";
  let table =
    Table.create ~title:"cdcl microbench (fixed seeds)"
      ~columns:
        [ "vars"; "verdict"; "decisions"; "conflicts"; "propagations";
          "learned" ]
  in
  let case ~label build =
    let s = Solver.create () in
    build s;
    let st0 = Solver.stats s in
    let t0 = Metrics.now_s () in
    let verdict =
      match Solver.solve s with
      | Solver.Sat -> "sat"
      | Solver.Unsat -> "unsat"
      | Solver.Unknown _ -> "unknown"
    in
    let wall = Metrics.now_s () -. t0 in
    let st1 = Solver.stats s in
    let d f = f st1 - f st0 in
    let props = d (fun (st : Solver.stats) -> st.propagations) in
    let props_per_s = if wall > 0. then float_of_int props /. wall else 0. in
    Metrics.set_gauge
      (Metrics.gauge ~scope:"runtime" ("solver-bench/" ^ label ^ " props-per-s"))
      props_per_s;
    Printf.eprintf "  %-34s %8.4f s %12.0f props/s
" label wall props_per_s;
    (* Clause count is not read back from the solver on purpose: the
       generators above fix it, and unit/duplicate simplification at
       add time is an implementation detail the table must not track. *)
    Table.add_text_row table ~label
      ~cells:
        [
          string_of_int (Solver.n_vars s);
          verdict;
          string_of_int (d (fun (st : Solver.stats) -> st.decisions));
          string_of_int (d (fun (st : Solver.stats) -> st.conflicts));
          string_of_int props;
          string_of_int (d (fun (st : Solver.stats) -> st.learned));
        ]
  in
  case ~label:"3-sat 150v r=4.1 seed=11" (fun s ->
      add_random_3sat s (Rng.create 11) ~nvars:150 ~nclauses:615);
  case ~label:"3-sat 180v r=4.26 seed=12" (fun s ->
      add_random_3sat s (Rng.create 12) ~nvars:180 ~nclauses:767);
  case ~label:"3-sat 130v r=5.0 seed=14" (fun s ->
      add_random_3sat s (Rng.create 14) ~nvars:130 ~nclauses:650);
  case ~label:"pigeonhole 7 into 6" (fun s -> add_pigeonhole s ~holes:6);
  case ~label:"pigeonhole 8 into 7" (fun s -> add_pigeonhole s ~holes:7);
  Table.print table

(* ----------------------------------------------------------- methodology *)

let methodology () =
  section "Sec. V-C methodology - minimum locked inputs meeting designer goals";
  let table =
    Table.create ~title:"fir benchmark, 1 locked adder FU, 18-bit key budget"
      ~columns:
        [ "target errors"; "min lambda"; "|M| chosen"; "achieved"; "lambda"; "top-up" ]
  in
  let bench = Workload.find "fir" in
  let schedule = Workload.schedule bench in
  let trace = Workload.trace bench in
  let allocation = Allocation.for_schedule schedule in
  let k = Kmatrix.build trace in
  let candidates = Array.of_list (Kmatrix.top_minterms ~kind:Dfg.Add k ~n:10) in
  List.iter
    (fun (label, goal) ->
      let plan =
        Methodology.design ~key_bits:18 k schedule allocation ~scheme:Scheme.Sfll_rem
          ~locked_fus:[ 0 ] ~candidates goal
      in
      Table.add_text_row table ~label
        ~cells:
          [
            string_of_int goal.Methodology.target_error_events;
            Printf.sprintf "%.0e" goal.Methodology.min_lambda;
            (match plan.Methodology.stopped with
            | None -> string_of_int plan.Methodology.minterms_per_fu
            | Some reason ->
              (* The search was interrupted: the budget shown is the
                 largest one evaluated, not the converged answer. *)
              Printf.sprintf "%d (stopped: %s)" plan.Methodology.minterms_per_fu
                (Limits.reason_label reason));
            string_of_int plan.Methodology.achieved_errors;
            (if plan.Methodology.predicted_lambda = infinity then "inf"
             else Printf.sprintf "%.0f" plan.Methodology.predicted_lambda);
            (if plan.Methodology.exponential_topup then "permnet" else "none");
          ])
    [
      ("modest", { Methodology.target_error_events = 50; min_lambda = 1e3 });
      ("median", { Methodology.target_error_events = 600; min_lambda = 1e3 });
      ("demanding", { Methodology.target_error_events = 1_200; min_lambda = 1e3 });
      ("extreme", { Methodology.target_error_events = 1_200; min_lambda = 1e7 });
    ];
  Table.print table

(* -------------------------------------------------------------- runtime *)

let runtime () =
  section "Runtime - Bechamel microbenches (P-time claims of Secs. IV-C and V-B)";
  let bench = Workload.find "dct" in
  let schedule = Workload.schedule bench in
  let trace = Workload.trace bench in
  let allocation = Allocation.for_schedule schedule in
  let k = Kmatrix.build trace in
  let profile = Rb_sim.Operands.build trace in
  let candidates = Array.of_list (Kmatrix.top_minterms ~kind:Dfg.Add k ~n:10) in
  let config =
    Rb_locking.Config.make ~scheme:Scheme.Sfll_rem
      ~locks:[ (0, [ candidates.(0); candidates.(1) ]) ]
  in
  let input = { Binders.schedule; allocation; profile; k; config; candidates } in
  let fft512 = Workload.parametric "fft" ~n:512 in
  (* 256 samples of the 9,216-op fft-512 kernel: the K-matrix and
     profile builds every context derives from one golden pass. *)
  let trace_fft512 = Workload.trace fft512 in
  (* The kernel-scale front end's hot call: heuristic co-design of
     2 adders x 2 minterms (|C|=10) on the same kernel. *)
  let heuristic_fft512 =
    let schedule = Workload.schedule ~limits:{ Rb_sched.Scheduler.adders = 8; multipliers = 8 } fft512 in
    let k = Kmatrix.build trace_fft512 in
    let allocation = Allocation.for_schedule schedule in
    let spec =
      { Codesign.scheme = Scheme.Sfll_rem;
        locked_fus = List.filteri (fun i _ -> i < 2) (Allocation.fu_ids allocation Dfg.Add);
        minterms_per_fu = 2;
        candidates = Array.of_list (Kmatrix.top_minterms ~kind:Dfg.Add k ~n:10) }
    in
    fun () -> ignore (Codesign.heuristic k schedule allocation spec)
  in
  let open Bechamel in
  (* One microbench per binder (all run on the same dct input: 1
     locked FU x 2 minterms, |C|=10), plus the hot non-binder
     kernels. *)
  let tests =
    List.map
      (fun b ->
        Test.make
          ~name:(Printf.sprintf "%s binder (dct)" (Binders.name b))
          (Staged.stage (fun () -> ignore (Binders.bind b input))))
      Binders.all
    @ [
        Test.make ~name:"K-matrix build (dct, 256 samples)"
          (Staged.stage (fun () -> ignore (Kmatrix.build trace)));
        Test.make ~name:"K-matrix build (fft 512)"
          (Staged.stage (fun () -> ignore (Kmatrix.build trace_fft512)));
        Test.make ~name:"profile build (fft 512)"
          (Staged.stage (fun () -> ignore (Rb_sim.Operands.build trace_fft512)));
        Test.make ~name:"heuristic co-design (fft 512)" (Staged.stage heuristic_fft512);
        Test.make ~name:"Hungarian 8x8"
          (let m =
             Array.init 8 (fun i ->
                 Array.init 8 (fun j -> float_of_int (((i * 31) + (j * 17)) mod 23)))
           in
           Staged.stage (fun () -> ignore (Rb_matching.Matcher.min_cost m)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) () in
  (* Measured estimates are timings, so per the determinism contract
     they go to stderr (stdout stays byte-identical across --jobs) and
     into runtime/ gauges, which --metrics captures in BENCH.json. *)
  Printf.printf
    "  measured ns/run estimates print to stderr; --metrics records them\n\
    \  as runtime/ gauges in the snapshot\n";
  List.iter
    (fun test ->
      (* The quota decides how many times each thunk runs, so any work
         counters it would bump are timing-derived, not deterministic:
         suspend collection during measurement. *)
      let results =
        Metrics.set_enabled false;
        Fun.protect ~finally:(fun () -> Metrics.set_enabled true) @@ fun () ->
        let raw =
          Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ])
        in
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name ols ->
          let name =
            match String.index_opt name '/' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          match Analyze.OLS.estimates ols with
          | Some (est :: _) ->
            Metrics.set_gauge (Metrics.gauge ~scope:"runtime" (name ^ " ns-per-run")) est;
            Printf.eprintf "  %-42s %12.1f ns/run\n" name est
          | Some [] | None -> Printf.eprintf "  %-42s (no estimate)\n" name)
        results)
    tests

(* ---------------------------------------------------------------- serve *)

(* The serve daemon's job palette: 41 distinct feasible jobs spanning
   every operation the service layer executes. The replay stream
   below revisits these at random, so consecutive requests repeat
   whole jobs — the regime the job-outcome store is built for. Its
   binds share benchmark contexts across binders, but only whole
   outcomes are cached, so each bind builds its own context. *)
let serve_palette () =
  let open Rb_service.Job in
  let bind benchmark binder seed =
    Bind
      { benchmark; seed; binder; kind = Dfg.Mul; locked_fus = 2; minterms_per_fu = 2 }
  in
  let mul_binds =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun binder -> List.map (bind b binder) [ 1789; 1790 ])
          [ "codesign"; "area"; "obf" ])
      [ "dct"; "fft"; "jctrans2" ]
  in
  let fir_text = Rb_dfg.Dfg_text.to_string (Workload.find "fir").Workload.dfg in
  mul_binds
  @ [
      Bind
        { benchmark = "ecb_enc4"; seed = 1789; binder = "codesign"; kind = Dfg.Add;
          locked_fus = 2; minterms_per_fu = 2 };
      Bind
        { benchmark = "fir"; seed = 1789; binder = "area"; kind = Dfg.Add;
          locked_fus = 1; minterms_per_fu = 2 };
      Lint
        { benchmark = Some "dct"; seed = 1789; locked_fus = 2; minterms_per_fu = 2;
          min_lambda = None };
      Lint
        { benchmark = Some "fir"; seed = 1789; locked_fus = 2; minterms_per_fu = 2;
          min_lambda = None };
      Analyze { scheme = None; width = 4; strength = 4; seed = 1789 };
      Analyze { scheme = Some Pf; width = 4; strength = 2; seed = 1789 };
      Analyze { scheme = Some Rll; width = 4; strength = 2; seed = 1789 };
      Analyze { scheme = Some Antisat; width = 4; strength = 4; seed = 1789 };
      Analyze { scheme = Some Permnet; width = 3; strength = 2; seed = 1789 };
      Attack
        { scheme = Rll; width = 3; strength = 2; seed = 1789; max_iterations = 20_000;
          portfolio = 1 };
      Attack
        { scheme = Rll; width = 4; strength = 4; seed = 1789; max_iterations = 20_000;
          portfolio = 1 };
      Attack
        { scheme = Pf; width = 3; strength = 1; seed = 1789; max_iterations = 20_000;
          portfolio = 1 };
      Attack
        { scheme = Pf; width = 4; strength = 2; seed = 1789; max_iterations = 20_000;
          portfolio = 1 };
      Attack
        { scheme = Permnet; width = 3; strength = 2; seed = 1789; max_iterations = 20_000;
          portfolio = 1 };
      Export_cnf { scheme = Rll; width = 4; strength = 2; miter = false; seed = 1789 };
      Export_cnf { scheme = Pf; width = 4; strength = 2; miter = true; seed = 1789 };
      Export_cnf { scheme = Permnet; width = 4; strength = 2; miter = false; seed = 1789 };
      List_benchmarks;
      Show { benchmark = "dct"; seed = 1789 };
      Show { benchmark = "fir"; seed = 1790 };
      Export_dfg { benchmark = "dct" };
      Dot { benchmark = "fir" };
      Custom
        { source = Dfg_source fir_text; kind = Dfg.Add; locked_fus = 1;
          minterms_per_fu = 2; trace_length = 256; seed = 1789 };
    ]

(* Traffic replay through the Rb_service executor — the serve daemon's
   dispatch path (job stream -> batches -> pool -> job-outcome store)
   minus the NDJSON transport. The stream draws from the fixed
   palette, so the cache hit/miss split is a property of the workload
   and byte-identical for every --jobs value: the store's single-flight
   discipline gives one miss per distinct job even when workers race,
   so the misses equal the palette size. Stdout carries only
   deterministic counts; latency percentiles and throughput are
   timings, so they go to stderr and runtime/ gauges. *)
let rec serve_replay ~pool () =
  section
    "Serve - rb-job/1 traffic replay: 100k overlapping jobs through the\n\
     executor's job-outcome store (p50/p99 latency on stderr)";
  let palette = Array.of_list (serve_palette ()) in
  let n_jobs = 100_000 in
  let batch = 64 in
  let store = Rb_service.Store.create () in
  let executor = Rb_service.Executor.create ~store ~pool () in
  let rng = Rng.create 20_260_808 in
  let stream =
    Array.init n_jobs (fun _ -> palette.(Rng.int rng (Array.length palette)))
  in
  let walls = Array.make n_jobs 0.0 in
  let errors = ref 0 in
  let t0 = Metrics.now_s () in
  let pos = ref 0 in
  while !pos < n_jobs do
    let len = min batch (n_jobs - !pos) in
    let results = Rb_service.Executor.run_batch executor (Array.sub stream !pos len) in
    Array.iteri
      (fun i (r, w) ->
        walls.(!pos + i) <- w;
        match r with Ok _ -> () | Error _ -> incr errors)
      results;
    pos := !pos + len
  done;
  let wall = Metrics.now_s () -. t0 in
  let stats = Rb_service.Store.stats store in
  let lookups = stats.Rb_service.Store.hits + stats.Rb_service.Store.misses in
  Printf.printf "  replayed %d jobs from a %d-job palette in batches of %d\n" n_jobs
    (Array.length palette) batch;
  Printf.printf "  results: %d ok, %d errors\n" (n_jobs - !errors) !errors;
  Printf.printf "  cache: %d hits, %d misses over %d lookups (%.1f%% hit rate)\n"
    stats.Rb_service.Store.hits stats.Rb_service.Store.misses lookups
    (100.0 *. float_of_int stats.Rb_service.Store.hits /. float_of_int (max 1 lookups));
  Array.sort compare walls;
  let pct p = walls.(min (n_jobs - 1) (p * n_jobs / 100)) in
  let p50 = pct 50 and p99 = pct 99 in
  let throughput = float_of_int n_jobs /. wall in
  Metrics.set_gauge (Metrics.gauge ~scope:"runtime" "serve p50 ms-per-job") (1000. *. p50);
  Metrics.set_gauge (Metrics.gauge ~scope:"runtime" "serve p99 ms-per-job") (1000. *. p99);
  Metrics.set_gauge (Metrics.gauge ~scope:"runtime" "serve jobs-per-s") throughput;
  Metrics.set_gauge
    (Metrics.gauge ~scope:"runtime" "serve hit-rate %")
    (100.0 *. float_of_int stats.Rb_service.Store.hits /. float_of_int (max 1 lookups));
  Printf.eprintf "  [serve: p50 %.3f ms, p99 %.3f ms, %.0f jobs/s]\n" (1000. *. p50)
    (1000. *. p99) throughput;
  serve_bounded_replay ~pool ();
  serve_admission_micro ~pool ()

(* The bounded daemon: the same traffic shape under --store-cap. The
   palette is closure-free on purpose — export jobs cache Exported
   text, pure data whose Obj.reachable_words cost is a stable property
   of the value — and the replay is sequential, so the LRU access
   order, and with it the [cache/evictions] delta the perf gate pins,
   is deterministic and identical on every machine and compiler the
   gate runs on. The acceptance bar: evictions actually happen,
   resident bytes stay at the cap, and every response is
   byte-identical to the unbounded daemon's. *)
and serve_bounded_replay ~pool () =
  let open Rb_service.Job in
  let palette =
    List.concat_map
      (fun scheme ->
        List.concat_map
          (fun width ->
            List.map
              (fun seed ->
                Export_cnf { scheme; width; strength = 2; miter = false; seed })
              [ 1789; 1790 ])
          [ 3; 4; 5 ])
      [ Rll; Pf; Permnet ]
    @ [
        Export_dfg { benchmark = "dct" };
        Export_dfg { benchmark = "fir" };
        Dot { benchmark = "dct" };
        Dot { benchmark = "fir" };
      ]
  in
  let palette = Array.of_list palette in
  let render r =
    match r with
    | Ok outcome -> Json.to_string (Rb_service.Render.result_to_json outcome)
    | Error e -> Json.to_string (Rb_service.Error.to_json e)
  in
  (* Reference pass: unbounded store, one run per palette entry, and
     the total resident cost the cap is derived from. *)
  let reference_store = Rb_service.Store.create () in
  let reference = Rb_service.Executor.create ~store:reference_store ~pool () in
  let expected = Array.map (fun job -> render (Rb_service.Executor.run reference job)) palette in
  let total_bytes = (Rb_service.Store.stats reference_store).Rb_service.Store.bytes in
  let cap_bytes = max 1 (total_bytes / 2) in
  let store = Rb_service.Store.create ~cap_bytes () in
  let executor = Rb_service.Executor.create ~store ~pool () in
  let n_jobs = 20_000 in
  let rng = Rng.create 20_260_809 in
  let divergent = ref 0 in
  let t0 = Metrics.now_s () in
  for _ = 1 to n_jobs do
    let i = Rng.int rng (Array.length palette) in
    if render (Rb_service.Executor.run executor palette.(i)) <> expected.(i) then
      incr divergent
  done;
  let wall = Metrics.now_s () -. t0 in
  let stats = Rb_service.Store.stats store in
  Printf.printf
    "  bounded replay: %d sequential jobs from a %d-job closure-free palette\n"
    n_jobs (Array.length palette);
  Printf.printf "  store cap: half of the %d-byte working set\n" total_bytes;
  Printf.printf "  evictions: %d (resident bytes within cap: %b)\n"
    stats.Rb_service.Store.evictions
    (stats.Rb_service.Store.bytes <= cap_bytes);
  Printf.printf "  responses byte-identical to the unbounded daemon: %b\n"
    (!divergent = 0);
  Printf.eprintf "  [serve bounded: %.0f jobs/s]\n" (float_of_int n_jobs /. wall)

(* Admission control through the real NDJSON loop: a burst gathered as
   one batch against an in-flight cap of 2 sheds all but the first two
   lines, pinning a fixed [serve/rejected] delta for the perf gate. *)
and serve_admission_micro ~pool () =
  let requests =
    List.init 8 (fun i ->
        Printf.sprintf {|{"schema":"rb-job/1","id":%d,"op":"list"}|} i)
  in
  let payload = String.concat "" (List.map (fun r -> r ^ "\n") requests) in
  let read_fd, write_fd = Unix.pipe ~cloexec:true () in
  ignore (Unix.write_substring write_fd payload 0 (String.length payload));
  Unix.close write_fd;
  let executor = Rb_service.Executor.create ~pool () in
  let admission = Rb_service.Serve.Admission.create 2 in
  let null = open_out Filename.null in
  let stop =
    Rb_service.Serve.run ~executor ~batch_size:8 ~admission ~input:read_fd
      ~output:null ()
  in
  close_out null;
  Unix.close read_fd;
  Printf.printf "  admission: burst of %d against an in-flight cap of 2 -> %d shed\n"
    (List.length requests)
    (List.length requests - 2);
  assert (stop = Rb_service.Serve.Eof)

(* ------------------------------------------------------------------ CLI *)

let section_order =
  [ "fig4"; "fig5"; "fig6"; "headline"; "eqn1"; "sat-attack"; "attack-portfolio";
    "analysis"; "solver-bench"; "methodology"; "quality"; "postlock";
    "ablation"; "serve"; "runtime" ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [--sections a,b,...] [--list-sections]\n\
    \       [--metrics FILE] [--solver-budget N] [SECTION...]\n\
     available sections: %s\n"
    (String.concat " " section_order)

(* One BENCH.json per run: the config that produced it, a record per
   section in run order, and the final whole-process snapshot. Only
   the "sections" records feed the regression gate; "totals" is for
   humans and dashboards. *)
let bench_json ~jobs ~records =
  Json.Obj
    [
      ("schema", Json.String "rb-bench/1");
      ( "config",
        Json.Obj
          [
            ("jobs", Json.Int jobs);
            ( "sections",
              Json.List (List.map (fun (name, _, _) -> Json.String name) records) );
          ] );
      ( "sections",
        Json.List
          (List.map
             (fun (name, wall, deltas) ->
               Json.Obj
                 [
                   ("section", Json.String name);
                   ("wall_s", Json.Float wall);
                   ("counters", Metrics.counters_to_json deltas);
                 ])
             records) );
      ("totals", Metrics.to_json (Metrics.snapshot ()));
    ]

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let parse_pos_int flag s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | _ ->
    Printf.eprintf "%s expects a positive integer, got %S\n" flag s;
    exit 2

let split_sections s = String.split_on_char ',' s |> List.filter (fun x -> x <> "")

let () =
  (* Batch-throughput GC tuning. The attack sections allocate tens of
     millions of minor words, and under OCaml 5 every minor collection
     is a stop-the-world synchronisation of all domains — at the
     default 256k-word minor heap that sync fires hundreds of times
     and costs ~10% wall on the SAT-attack section alone. A 4M-word
     minor heap makes the main domain's collections ~30x rarer, and
     the looser space_overhead trades heap headroom for less major-GC
     work. On OCaml 5.1 the minor heap size set here is not inherited
     by the pool's worker domains, which keep the default; only
     OCAMLRUNPARAM (e.g. s=4M) sizes every domain's minor heap.
     Determinism is untouched: GC pacing never feeds anything printed
     to stdout. *)
  Gc.set
    { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024; space_overhead = 200 };
  let jobs = ref (Pool.default_jobs ()) in
  let requested = ref [] in
  let list_only = ref false in
  let metrics_out = ref None in
  let solver_budget = ref None in
  let rec parse = function
    | [] -> ()
    | "--list-sections" :: rest ->
      list_only := true;
      parse rest
    | "--jobs" :: n :: rest ->
      jobs := parse_pos_int "--jobs" n;
      parse rest
    | [ "--jobs" ] ->
      Printf.eprintf "--jobs expects a value\n";
      exit 2
    | "--sections" :: s :: rest ->
      requested := !requested @ split_sections s;
      parse rest
    | [ "--sections" ] ->
      Printf.eprintf "--sections expects a value\n";
      exit 2
    | "--metrics" :: path :: rest ->
      metrics_out := Some path;
      parse rest
    | [ "--metrics" ] ->
      Printf.eprintf "--metrics expects a file name\n";
      exit 2
    | "--solver-budget" :: n :: rest ->
      solver_budget := Some (parse_pos_int "--solver-budget" n);
      parse rest
    | [ "--solver-budget" ] ->
      Printf.eprintf "--solver-budget expects a value\n";
      exit 2
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      jobs := parse_pos_int "--jobs" (String.sub arg 7 (String.length arg - 7));
      parse rest
    | arg :: rest when String.length arg > 11 && String.sub arg 0 11 = "--sections=" ->
      requested := !requested @ split_sections (String.sub arg 11 (String.length arg - 11));
      parse rest
    | arg :: rest when String.length arg > 10 && String.sub arg 0 10 = "--metrics=" ->
      metrics_out := Some (String.sub arg 10 (String.length arg - 10));
      parse rest
    | arg :: rest
      when String.length arg > 16 && String.sub arg 0 16 = "--solver-budget=" ->
      solver_budget :=
        Some (parse_pos_int "--solver-budget" (String.sub arg 16 (String.length arg - 16)));
      parse rest
    | arg :: _ when String.length arg >= 2 && String.sub arg 0 2 = "--" ->
      Printf.eprintf "unknown option %s\n" arg;
      usage ();
      exit 2
    | name :: rest ->
      requested := !requested @ [ name ];
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then begin
    List.iter print_endline section_order;
    exit 0
  end;
  Metrics.set_enabled true;
  let attack_limit =
    match !solver_budget with
    | None -> Limits.none
    | Some n -> Limits.conflicts n
  in
  Pool.with_pool ~jobs:!jobs (fun pool ->
      let sections =
        experiment_sections pool
        @ [
            ("eqn1", eqn1);
            ("sat-attack", sat_attack ~limit:attack_limit);
            ("attack-portfolio", attack_portfolio ~pool ~limit:attack_limit);
            ("analysis", static_analysis);
            ("solver-bench", solver_bench);
            ("methodology", methodology);
            ("serve", serve_replay ~pool);
            ("runtime", runtime);
          ]
      in
      let lookup name =
        match List.assoc_opt name sections with
        | Some f -> (name, f)
        | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat " " section_order);
          exit 1
      in
      let to_run =
        match !requested with
        | [] -> List.map lookup section_order
        | names -> List.map lookup names
      in
      let records =
        List.map
          (fun (name, f) ->
            let before = Metrics.snapshot () in
            let t0 = Metrics.now_s () in
            Metrics.with_span name f;
            let wall = Metrics.now_s () -. t0 in
            let after = Metrics.snapshot () in
            (name, wall, Metrics.counter_deltas ~before ~after))
          to_run
      in
      (* One timing block, in section order, after all sections — the
         per-section lines used to interleave with section stderr under
         --jobs N. *)
      List.iter
        (fun (name, wall, _) ->
          Printf.eprintf "[%s: %.2fs, jobs=%d]\n" name wall (Pool.jobs pool))
        records;
      flush stderr;
      match !metrics_out with
      | None -> ()
      | Some path ->
        write_file path (Json.to_string (bench_json ~jobs:!jobs ~records) ^ "\n");
        Printf.eprintf "[metrics written to %s]\n%!" path)
