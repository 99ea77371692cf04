module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Schedule = Rb_sched.Schedule
module Kmatrix = Rb_sim.Kmatrix
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Profile = Rb_hls.Profile
module Config = Rb_locking.Config
module Combi = Rb_util.Combi
module Rng = Rb_util.Rng
module Stats = Rb_util.Stats
module Pool = Rb_util.Pool

(* Fan a map out over the pool when one is supplied; the inline
   fallback keeps every driver usable without a pool (and is what a
   nested map inside a pool task resolves to). *)
let pool_map_list pool f l =
  match pool with
  | None -> List.map f l
  | Some pool -> Pool.map_list pool ~f l

(* Every binding/config this module produces is asserted lint-clean
   before it is measured, so a regression in a binder or the co-design
   search fails loudly instead of skewing a figure. *)
let assert_lint ?config ?candidates ~subject schedule allocation binding =
  Rb_lint.Lint.assert_clean
    (Rb_lint.Lint.design ?config ?candidates ~subject schedule allocation
       ~fu_of_op:(Binding.fu_array binding))

type context = {
  benchmark : string;
  schedule : Schedule.t;
  allocation : Allocation.t;
  k : Kmatrix.t;
  profile : Profile.t;
  area_binding : Binding.t;
  power_binding : Binding.t;
  candidates_add : Minterm.t array;
  candidates_mul : Minterm.t array;
}

let context ?(n_candidates = 10) ~name schedule trace =
  let allocation = Allocation.for_schedule schedule in
  (* One golden pass: the profile is the operand columns, and the K
     matrix counts them. *)
  let profile = Rb_sim.Operands.build trace in
  let k = Kmatrix.of_operands profile in
  let area_binding = Rb_hls.Area_binding.bind schedule allocation in
  let power_binding = Rb_hls.Power_binding.bind schedule allocation ~profile in
  assert_lint ~subject:(name ^ "/area-binding") schedule allocation area_binding;
  assert_lint ~subject:(name ^ "/power-binding") schedule allocation power_binding;
  let top kind = Array.of_list (Kmatrix.top_minterms ~kind k ~n:n_candidates) in
  {
    benchmark = name;
    schedule;
    allocation;
    k;
    profile;
    area_binding;
    power_binding;
    candidates_add = top Dfg.Add;
    candidates_mul = top Dfg.Mul;
  }

let candidates_for ctx = function
  | Dfg.Add -> ctx.candidates_add
  | Dfg.Mul -> ctx.candidates_mul

type combo_errors = { e_area : int; e_power : int; e_obf : int }

type config_result = {
  kind : Dfg.op_kind;
  locked_fu_count : int;
  minterms_per_fu : int;
  combos_total : int;
  combos : combo_errors array;
  sampled : bool;
  e_codesign_optimal : int;
  optimal_candidates_used : int;
  e_codesign_heuristic : int;
  heuristic_searched : int;
}

(* Locked-input occurrences per (FU, candidate) for a fixed binding:
   lets a combination's baseline error be summed in O(L * m). *)
let fixed_binding_weights table binding fus =
  let n_cands = Array.length (Cost.candidates table) in
  List.map
    (fun fu ->
      let row = Array.make n_cands 0 in
      List.iter
        (fun op ->
          for c = 0 to n_cands - 1 do
            row.(c) <- row.(c) + Cost.cand_count table ~cand:c ~op
          done)
        (Binding.ops_on_fu binding fu);
      (fu, row))
    fus

let combo_error weights assignment =
  List.fold_left2
    (fun acc (_, row) subset ->
      Array.fold_left (fun acc c -> acc + row.(c)) acc subset)
    0 weights assignment

let random_subset rng n_cands m =
  let indices = Array.init n_cands Fun.id in
  Rng.shuffle rng indices;
  let subset = Array.sub indices 0 m in
  Array.sort Int.compare subset;
  subset

let run_codesign_optimal ~max_optimal_assignments k schedule allocation spec =
  match Codesign.optimal ~max_assignments:max_optimal_assignments k schedule allocation spec with
  | `Solution s -> (s.Codesign.errors, Array.length spec.Codesign.candidates)
  | `Too_large _ ->
    (* Re-run on a shortened candidate list (most frequent first) so an
       exact answer is still reported, with the reduction recorded. *)
    let rec shrink n =
      let reduced =
        { spec with Codesign.candidates = Array.sub spec.Codesign.candidates 0 n }
      in
      if Codesign.search_space reduced <= max_optimal_assignments then
        match Codesign.optimal ~max_assignments:max_optimal_assignments k schedule
                allocation reduced
        with
        | `Solution s -> (s.Codesign.errors, n)
        | `Too_large _ -> assert false
      else shrink (n - 1)
    in
    shrink (Array.length spec.Codesign.candidates - 1)

let sweep ?(seed = 7) ?(max_combos_per_config = 2000)
    ?(max_optimal_assignments = 300_000) ?(fu_counts = [ 1; 2; 3 ])
    ?(minterm_counts = [ 1; 2; 3 ]) ctx kind =
  let candidates = candidates_for ctx kind in
  let n_cands = Array.length candidates in
  let fus = Allocation.fu_ids ctx.allocation kind in
  let available = List.length fus in
  if n_cands = 0 || available = 0 then []
  else begin
    let table = Cost.cand_table ctx.k candidates in
    let fast = Obf_binding.Fast.prepare table ctx.schedule ctx.allocation ~kind in
    let run_config locked_fu_count minterms_per_fu =
      let locked_fus = List.filteri (fun i _ -> i < locked_fu_count) fus in
      let n_locked = List.length locked_fus in
      let area_w = fixed_binding_weights table ctx.area_binding locked_fus in
      let power_w = fixed_binding_weights table ctx.power_binding locked_fus in
      let per_fu = Combi.choose n_cands minterms_per_fu in
      let combos_total = Combi.product_size (List.map (fun _ -> per_fu) locked_fus) in
      let config_seed =
        seed + (1000 * locked_fu_count) + minterms_per_fu
        + Hashtbl.hash (ctx.benchmark, Dfg.kind_label kind)
      in
      let eval assignment =
        let locks = List.combine locked_fus assignment in
        {
          e_area = combo_error area_w assignment;
          e_power = combo_error power_w assignment;
          e_obf = Obf_binding.Fast.best_errors fast ~locks;
        }
      in
      let n_combos, sampled, assignment_at =
        if combos_total <= max_combos_per_config then begin
          let indices = Array.init n_cands Fun.id in
          let subsets = Array.of_list (Combi.k_subsets indices minterms_per_fu) in
          let base = Array.length subsets in
          (* Linear index -> one subset per locked FU, first FU most
             significant: lexicographic enumeration order. *)
          let assignment_at t =
            let rec go j t acc =
              if j < 0 then acc else go (j - 1) (t / base) (subsets.(t mod base) :: acc)
            in
            go (n_locked - 1) t []
          in
          (combos_total, false, assignment_at)
        end
        else begin
          let assignment_at t =
            let rng = Rng.create (Hashtbl.hash (config_seed, t)) in
            List.map (fun _ -> random_subset rng n_cands minterms_per_fu) locked_fus
          in
          (max_combos_per_config, true, assignment_at)
        end
      in
      let combos = Array.init n_combos (fun t -> eval (assignment_at t)) in
      let spec =
        {
          Codesign.scheme = Rb_locking.Scheme.Sfll_rem;
          locked_fus;
          minterms_per_fu;
          candidates;
        }
      in
      let e_opt, opt_cands =
        run_codesign_optimal ~max_optimal_assignments ctx.k ctx.schedule ctx.allocation spec
      in
      let heur = Codesign.heuristic ctx.k ctx.schedule ctx.allocation spec in
      assert_lint ~config:heur.Codesign.config ~candidates
        ~subject:
          (ctx.benchmark ^ "/" ^ Dfg.kind_label kind ^ "/"
           ^ string_of_int locked_fu_count ^ "FU x "
           ^ string_of_int minterms_per_fu ^ "m/codesign")
        ctx.schedule ctx.allocation heur.Codesign.binding;
      {
        kind;
        locked_fu_count;
        minterms_per_fu;
        combos_total;
        combos;
        sampled;
        e_codesign_optimal = e_opt;
        optimal_candidates_used = opt_cands;
        e_codesign_heuristic = heur.Codesign.errors;
        heuristic_searched = heur.Codesign.assignments_searched;
      }
    in
    List.concat_map
      (fun locked_fu_count ->
        if locked_fu_count > available then []
        else
          List.filter_map
            (fun minterms_per_fu ->
              if minterms_per_fu > n_cands then None
              else Some (run_config locked_fu_count minterms_per_fu))
            minterm_counts)
      fu_counts
  end

let ratio_vs security baseline =
  float_of_int security /. float_of_int (max baseline 1)

type fig4_row = {
  row_benchmark : string;
  row_kind : Dfg.op_kind;
  obf_vs_area : float;
  obf_vs_power : float;
  cd_opt_vs_area : float;
  cd_opt_vs_power : float;
  cd_heur_vs_area : float;
  cd_heur_vs_power : float;
}

let collect_ratios results pick_security pick_baseline =
  List.concat_map
    (fun r ->
      Array.to_list r.combos
      |> List.map (fun combo -> ratio_vs (pick_security r combo) (pick_baseline combo)))
    results

let fig4_row ~benchmark kind results =
  match results with
  | [] -> None
  | _ ->
    let mean_of pick_security pick_baseline =
      Stats.mean (collect_ratios results pick_security pick_baseline)
    in
    Some
      {
        row_benchmark = benchmark;
        row_kind = kind;
        obf_vs_area = mean_of (fun _ c -> c.e_obf) (fun c -> c.e_area);
        obf_vs_power = mean_of (fun _ c -> c.e_obf) (fun c -> c.e_power);
        cd_opt_vs_area = mean_of (fun r _ -> r.e_codesign_optimal) (fun c -> c.e_area);
        cd_opt_vs_power = mean_of (fun r _ -> r.e_codesign_optimal) (fun c -> c.e_power);
        cd_heur_vs_area = mean_of (fun r _ -> r.e_codesign_heuristic) (fun c -> c.e_area);
        cd_heur_vs_power = mean_of (fun r _ -> r.e_codesign_heuristic) (fun c -> c.e_power);
      }

type fig5_cell = {
  cell_label : string;
  f5_obf_vs_area : float;
  f5_obf_vs_power : float;
  f5_cd_vs_area : float;
  f5_cd_vs_power : float;
}

let fig5_cells pooled =
  let cell label keep =
    let results = List.filter keep pooled in
    let mean_of pick_security pick_baseline =
      Stats.mean (collect_ratios results pick_security pick_baseline)
    in
    {
      cell_label = label;
      f5_obf_vs_area = mean_of (fun _ c -> c.e_obf) (fun c -> c.e_area);
      f5_obf_vs_power = mean_of (fun _ c -> c.e_obf) (fun c -> c.e_power);
      f5_cd_vs_area = mean_of (fun r _ -> r.e_codesign_heuristic) (fun c -> c.e_area);
      f5_cd_vs_power = mean_of (fun r _ -> r.e_codesign_heuristic) (fun c -> c.e_power);
    }
  in
  [
    cell "1 FU" (fun r -> r.locked_fu_count = 1);
    cell "2 FUs" (fun r -> r.locked_fu_count = 2);
    cell "3 FUs" (fun r -> r.locked_fu_count = 3);
    cell "1 Lock Inp." (fun r -> r.minterms_per_fu = 1);
    cell "2 Lock Inp." (fun r -> r.minterms_per_fu = 2);
    cell "3 Lock Inp." (fun r -> r.minterms_per_fu = 3);
    cell "Avg." (fun _ -> true);
  ]

type overhead_result = {
  ov_benchmark : string;
  area_registers : int;
  obf_registers : float;
  cd_registers : float;
  power_switching : float;
  obf_switching : float;
  cd_switching : float;
}

let overhead ?(seed = 11) ?(combos_per_config = 10) ctx =
  let obf_regs = ref [] and obf_sw = ref [] in
  let cd_regs = ref [] and cd_sw = ref [] in
  let note_binding regs sw ~subject config binding =
    assert_lint ~config ~subject ctx.schedule ctx.allocation binding;
    regs := float_of_int (Rb_hls.Registers.count binding) :: !regs;
    sw := Rb_hls.Switching.rate binding ctx.profile :: !sw
  in
  let run_kind kind =
    let candidates = candidates_for ctx kind in
    let n_cands = Array.length candidates in
    let fus = Allocation.fu_ids ctx.allocation kind in
    if n_cands > 0 && fus <> [] then
      List.iter
        (fun locked_fu_count ->
          if locked_fu_count <= List.length fus then
            List.iter
              (fun minterms_per_fu ->
                if minterms_per_fu <= n_cands then begin
                  let locked_fus = List.filteri (fun i _ -> i < locked_fu_count) fus in
                  let rng =
                    Rng.create
                      (seed + (100 * locked_fu_count) + minterms_per_fu
                       + Hashtbl.hash ctx.benchmark)
                  in
                  (* Obfuscation-aware binding over a small combination
                     subsample. *)
                  for _ = 1 to combos_per_config do
                    let locks =
                      List.map
                        (fun fu ->
                          let subset = random_subset rng n_cands minterms_per_fu in
                          (fu, Array.to_list (Array.map (fun c -> candidates.(c)) subset)))
                        locked_fus
                    in
                    let config =
                      Config.make ~scheme:Rb_locking.Scheme.Sfll_rem ~locks
                    in
                    let binding =
                      Obf_binding.bind ctx.k config ctx.schedule ctx.allocation
                    in
                    note_binding obf_regs obf_sw
                      ~subject:(ctx.benchmark ^ "/overhead/obf-aware") config binding
                  done;
                  (* Co-design heuristic binding, one per configuration. *)
                  let spec =
                    {
                      Codesign.scheme = Rb_locking.Scheme.Sfll_rem;
                      locked_fus;
                      minterms_per_fu;
                      candidates;
                    }
                  in
                  let heur = Codesign.heuristic ctx.k ctx.schedule ctx.allocation spec in
                  note_binding cd_regs cd_sw
                    ~subject:(ctx.benchmark ^ "/overhead/codesign") heur.Codesign.config
                    heur.Codesign.binding
                end)
              [ 1; 2; 3 ])
        [ 1; 2; 3 ]
  in
  run_kind Dfg.Add;
  run_kind Dfg.Mul;
  {
    ov_benchmark = ctx.benchmark;
    area_registers = Rb_hls.Registers.count ctx.area_binding;
    obf_registers = Stats.mean !obf_regs;
    cd_registers = Stats.mean !cd_regs;
    power_switching = Rb_hls.Switching.rate ctx.power_binding ctx.profile;
    obf_switching = Stats.mean !obf_sw;
    cd_switching = Stats.mean !cd_sw;
  }

type quality_result = {
  q_benchmark : string;
  q_kind : Dfg.op_kind;
  base_events : int;
  base_corrupted_samples : int;
  base_max_burst : int;
  secure_events : int;
  secure_corrupted_samples : int;
  secure_max_burst : int;
  samples : int;
}

let quality ?(locked_fus = 2) ?(minterms_per_fu = 2) ~trace ctx kind =
  let candidates = candidates_for ctx kind in
  let fus = Allocation.fu_ids ctx.allocation kind in
  if fus = [] || Array.length candidates = 0 then None
  else begin
    let spec =
      {
        Codesign.scheme = Rb_locking.Scheme.Sfll_rem;
        locked_fus = List.filteri (fun i _ -> i < locked_fus) fus;
        minterms_per_fu = min minterms_per_fu (Array.length candidates);
        candidates;
      }
    in
    let solution = Codesign.heuristic ctx.k ctx.schedule ctx.allocation spec in
    let config = solution.Codesign.config in
    assert_lint ~config ~candidates ~subject:(ctx.benchmark ^ "/quality/codesign")
      ctx.schedule ctx.allocation solution.Codesign.binding;
    let measure binding =
      Rb_sim.Exec.application_errors ctx.schedule trace
        ~fu_of_op:(Binding.fu_array binding) ~config
    in
    let base = measure ctx.area_binding in
    let secure = measure solution.Codesign.binding in
    Some
      {
        q_benchmark = ctx.benchmark;
        q_kind = kind;
        base_events = base.Rb_sim.Exec.error_events;
        base_corrupted_samples = base.Rb_sim.Exec.corrupted_samples;
        base_max_burst = base.Rb_sim.Exec.max_consecutive_cycles;
        secure_events = secure.Rb_sim.Exec.error_events;
        secure_corrupted_samples = secure.Rb_sim.Exec.corrupted_samples;
        secure_max_burst = secure.Rb_sim.Exec.max_consecutive_cycles;
        samples = base.Rb_sim.Exec.samples;
      }
  end

type post_binding_result = {
  pb_benchmark : string;
  pb_kind : Dfg.op_kind;
  codesign_errors : int;
  codesign_minterms : int;
  codesign_lambda : float;
  post_minterms : int option;
  post_errors : int;
  post_lambda : float;
}

let post_binding ?(key_bits = 32) ?(locked_fus = 2) ?(minterms_per_fu = 2) ctx kind =
  let candidates = candidates_for ctx kind in
  let fus = Allocation.fu_ids ctx.allocation kind in
  if fus = [] || Array.length candidates < minterms_per_fu then None
  else begin
    let locked = List.filteri (fun i _ -> i < locked_fus) fus in
    let spec =
      { Codesign.scheme = Rb_locking.Scheme.Sfll_rem; locked_fus = locked;
        minterms_per_fu; candidates }
    in
    let solution = Codesign.heuristic ctx.k ctx.schedule ctx.allocation spec in
    assert_lint ~config:solution.Codesign.config ~candidates
      ~subject:(ctx.benchmark ^ "/post-binding/codesign") ctx.schedule ctx.allocation
      solution.Codesign.binding;
    let input_bits = 2 * Rb_dfg.Word.width in
    let lambda_at minterms =
      Rb_locking.Resilience.lambda_minterms ~key_bits ~correct_keys:1 ~input_bits
        ~minterms
    in
    (* Post-binding locking on the area-aware design: per locked FU,
       greedily add the candidate minterm with the most occurrences
       over that FU's bound operations — the best a post-binding
       designer can do from the same candidate list C that co-design
       drew from. *)
    let per_fu_pool =
      List.map
        (fun fu ->
          let count_on_fu m =
            List.fold_left
              (fun acc op -> acc + Kmatrix.count ctx.k m op)
              0 (Binding.ops_on_fu ctx.area_binding fu)
          in
          Array.to_list candidates
          |> List.map (fun m -> (m, count_on_fu m))
          |> List.sort (fun (m1, c1) (m2, c2) ->
                 match Int.compare c2 c1 with 0 -> Minterm.compare m1 m2 | c -> c))
        locked
    in
    (* lock the top-h minterms of each FU's own pool; grow h until the
       co-design error level is met or the pools run dry *)
    let errors_at h =
      List.fold_left
        (fun acc pool ->
          pool
          |> List.filteri (fun i _ -> i < h)
          |> List.fold_left (fun acc (_, c) -> acc + c) acc)
        0 per_fu_pool
    in
    let rec grow h =
      let errors = errors_at h in
      let exhausted = List.for_all (fun pool -> h >= List.length pool) per_fu_pool in
      if errors >= solution.Codesign.errors then (Some h, errors)
      else if exhausted then (None, errors)
      else grow (h + 1)
    in
    let post_minterms, post_errors = grow 1 in
    Some
      {
        pb_benchmark = ctx.benchmark;
        pb_kind = kind;
        codesign_errors = solution.Codesign.errors;
        codesign_minterms = minterms_per_fu;
        codesign_lambda = lambda_at minterms_per_fu;
        post_minterms;
        post_errors;
        post_lambda = lambda_at (match post_minterms with Some h -> h | None ->
          List.fold_left (fun acc pool -> max acc (List.length pool)) 1 per_fu_pool);
      }
  end

(* ------------------------------------------------------------- suites *)

type sweep_key = { sk_benchmark : string; sk_kind : Dfg.op_kind }

let both_kinds ctxs =
  List.concat_map (fun ctx -> [ (ctx, Dfg.Add); (ctx, Dfg.Mul) ]) ctxs

let sweep_suite ?pool ?seed ?max_combos_per_config ?max_optimal_assignments
    ?fu_counts ?minterm_counts ctxs =
  (* One task per (benchmark, kind): the pool's only level. *)
  pool_map_list pool
    (fun (ctx, kind) ->
      ( { sk_benchmark = ctx.benchmark; sk_kind = kind },
        sweep ?seed ?max_combos_per_config ?max_optimal_assignments
          ?fu_counts ?minterm_counts ctx kind ))
    (both_kinds ctxs)

let fig4_rows suite =
  List.filter_map
    (fun (key, results) -> fig4_row ~benchmark:key.sk_benchmark key.sk_kind results)
    suite

let pooled_results suite = List.concat_map snd suite

let concentrations ctxs =
  List.concat_map
    (fun ctx ->
      List.concat_map
        (fun kind ->
          Array.to_list (candidates_for ctx kind)
          |> List.map (fun m -> Kmatrix.op_concentration ctx.k m))
        [ Dfg.Add; Dfg.Mul ])
    ctxs

type reduced_run = {
  rr_benchmark : string;
  rr_kind : Dfg.op_kind;
  rr_locked_fu_count : int;
  rr_minterms_per_fu : int;
  rr_candidates_used : int;
}

let reduced_optimal_runs ?(full_candidates = 10) suite =
  List.concat_map
    (fun (key, results) ->
      List.filter_map
        (fun r ->
          if r.optimal_candidates_used < full_candidates then
            Some
              {
                rr_benchmark = key.sk_benchmark;
                rr_kind = key.sk_kind;
                rr_locked_fu_count = r.locked_fu_count;
                rr_minterms_per_fu = r.minterms_per_fu;
                rr_candidates_used = r.optimal_candidates_used;
              }
          else None)
        results)
    suite

type headline_summary = {
  hl_obf_mean : float;
  hl_cd_mean : float;
  hl_gap_configs : int;
  hl_gap_mean : float;
  hl_gap_worst : float;
}

let headline ?(full_candidates = 10) suite =
  let obf = ref [] and cd = ref [] and gaps = ref [] in
  List.iter
    (fun (key, results) ->
      (match fig4_row ~benchmark:key.sk_benchmark key.sk_kind results with
       | None -> ()
       | Some row ->
         obf := row.obf_vs_area :: row.obf_vs_power :: !obf;
         cd := row.cd_heur_vs_area :: row.cd_heur_vs_power :: !cd);
      List.iter
        (fun r ->
          (* heuristic vs optimal, only where optimal searched the full
             candidate list *)
          if r.optimal_candidates_used = full_candidates then begin
            let opt = float_of_int r.e_codesign_optimal in
            let heur = float_of_int r.e_codesign_heuristic in
            if opt > 0.0 then gaps := ((opt -. heur) /. opt *. 100.0) :: !gaps
          end)
        results)
    suite;
  {
    hl_obf_mean = Stats.mean !obf;
    hl_cd_mean = Stats.mean !cd;
    hl_gap_configs = List.length !gaps;
    hl_gap_mean = Stats.mean !gaps;
    hl_gap_worst = Stats.maximum !gaps;
  }

let overhead_suite ?pool ?seed ?combos_per_config ctxs =
  pool_map_list pool (fun ctx -> overhead ?seed ?combos_per_config ctx) ctxs

let quality_suite ?pool ?locked_fus ?minterms_per_fu ~trace_of ctxs =
  pool_map_list pool
    (fun (ctx, kind) ->
      quality ?locked_fus ?minterms_per_fu ~trace:(trace_of ctx) ctx kind)
    (both_kinds ctxs)
  |> List.filter_map Fun.id

let post_binding_suite ?pool ?key_bits ?locked_fus ?minterms_per_fu ctxs =
  pool_map_list pool
    (fun (ctx, kind) -> post_binding ?key_bits ?locked_fus ?minterms_per_fu ctx kind)
    (both_kinds ctxs)
  |> List.filter_map Fun.id
