module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Schedule = Rb_sched.Schedule
module Kmatrix = Rb_sim.Kmatrix
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Config = Rb_locking.Config
module Combi = Rb_util.Combi
module Rng = Rb_util.Rng
module Stats = Rb_util.Stats
module Pool = Rb_util.Pool

type context = {
  benchmark : string;
  schedule : Schedule.t;
  allocation : Allocation.t;
  k : Kmatrix.t;
  profile : Rb_sim.Operands.t;
  area_binding : Binding.t;
  power_binding : Binding.t;
  candidates_add : Minterm.t array;
  candidates_mul : Minterm.t array;
}

let context ~name schedule trace =
  let allocation = Allocation.for_schedule schedule in
  (* One golden pass: the profile is the operand columns, and the K
     matrix counts them. *)
  let profile = Rb_sim.Operands.build trace in
  let k = Kmatrix.of_operands profile in
  let area_binding = Rb_hls.Area_binding.bind schedule allocation in
  let power_binding = Rb_hls.Power_binding.bind schedule allocation ~profile in
  {
    benchmark = name;
    schedule;
    allocation;
    k;
    profile;
    area_binding;
    power_binding;
    candidates_add = Codesign.top_candidates k Dfg.Add;
    candidates_mul = Codesign.top_candidates k Dfg.Mul;
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

(* The exhaustive co-design fold of one configuration: the Eqn. 2
   optimum of every multiset of candidate subsets, in the visit order
   of [Fast.fold_product], over the longest prefix of the candidate
   list (most frequent first) whose multiset count fits
   [max_optimal_assignments], so an exact answer is still reported
   with the reduction recorded. [fast] is prepared on the full list;
   a prefix subset scores the same there. Returns the prefix length,
   its subsets and the values; the values' maximum is what
   [Codesign.optimal] reports on that prefix. *)
let optimal_fold ~max_optimal_assignments fast spec =
  let fits n =
    Codesign.search_space { spec with Codesign.candidates = Array.sub spec.Codesign.candidates 0 n }
    <= max_optimal_assignments
  in
  let rec longest n = if fits n then n else longest (n - 1) in
  let n = longest (Array.length spec.Codesign.candidates) in
  if n < spec.Codesign.minterms_per_fu then
    invalid_arg "Experiments.sweep: max_optimal_assignments";
  let subsets =
    Array.of_list (Combi.k_subsets (Array.init n Fun.id) spec.Codesign.minterms_per_fu)
  in
  let fus = Array.of_list spec.Codesign.locked_fus in
  let values = Array.make (Combi.multisets (Array.length subsets) (Array.length fus)) 0 in
  ignore
    (Obf_binding.Fast.fold_product fast ~fus ~subsets ~init:0 ~f:(fun i _ errors ->
         values.(i) <- errors;
         i + 1));
  (n, subsets, values)

(* The Sec. VI grid, {1,2,3} locked FUs x {1,2,3} locked inputs per
   FU (FU count outer), kept to the shapes the kind's allocation and
   candidate list can hold; [make_spec]'s clamping never fires on
   them. *)
let grid ctx kind =
  let candidates = candidates_for ctx kind in
  let n_fus = List.length (Allocation.fu_ids ctx.allocation kind) in
  List.concat_map
    (fun locked_fus ->
      List.filter_map
        (fun minterms_per_fu ->
          if locked_fus > n_fus || minterms_per_fu > Array.length candidates then None
          else
            Some (Codesign.make_spec ctx.allocation kind ~locked_fus ~minterms_per_fu candidates))
        [ 1; 2; 3 ])
    [ 1; 2; 3 ]

let sweep ?(seed = 7) ?(max_combos_per_config = 2000)
    ?(max_optimal_assignments = 300_000) ctx kind =
  match grid ctx kind with
  | [] -> []
  | specs ->
    let candidates = candidates_for ctx kind in
    let n_cands = Array.length candidates in
    let table = Cost.cand_table ctx.k candidates in
    let fast = Obf_binding.Fast.prepare table ctx.schedule ctx.allocation ~kind in
    let run_config spec =
      let locked_fus = spec.Codesign.locked_fus in
      let minterms_per_fu = spec.Codesign.minterms_per_fu in
      let locked_fu_count = List.length locked_fus in
      let area_w = fixed_binding_weights table ctx.area_binding locked_fus in
      let power_w = fixed_binding_weights table ctx.power_binding locked_fus in
      let per_fu = Combi.choose n_cands minterms_per_fu in
      let combos_total = Combi.product_size (List.map (fun _ -> per_fu) locked_fus) in
      let config_seed =
        seed + (1000 * locked_fu_count) + minterms_per_fu
        + Hashtbl.hash (ctx.benchmark, Dfg.kind_label kind)
      in
      let n_used, subsets, optima = optimal_fold ~max_optimal_assignments fast spec in
      (* A combination's e_obf is symmetric in its locked FUs, so once
         the fold covers the full list it is the fold's value at the
         rank of the sorted subset indices, each found by its
         candidate bitmask. *)
      let e_obf =
        if n_used < n_cands then fun assignment ->
          match List.rev (List.combine locked_fus assignment) with
          | (fu, subset) :: fixed ->
            (Obf_binding.Fast.extend fast ~fixed ~fu ~subsets:[| subset |]).(0)
          | [] -> assert false
        else begin
          let mask subset = Array.fold_left (fun acc c -> acc lor (1 lsl c)) 0 subset in
          let index_of_mask = Array.make (1 lsl n_cands) 0 in
          Array.iteri (fun i subset -> index_of_mask.(mask subset) <- i) subsets;
          let rank = Combi.multiset_rank (Array.length subsets) locked_fu_count in
          fun assignment ->
            let tuple = Array.of_list (List.map (fun s -> index_of_mask.(mask s)) assignment) in
            Array.sort Int.compare tuple;
            optima.(rank tuple)
        end
      in
      let eval assignment =
        {
          e_area = combo_error area_w assignment;
          e_power = combo_error power_w assignment;
          e_obf = e_obf assignment;
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
            go (locked_fu_count - 1) t []
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
      let heur = Codesign.heuristic ctx.k ctx.schedule ctx.allocation spec in
      {
        kind;
        locked_fu_count;
        minterms_per_fu;
        combos_total;
        combos;
        sampled;
        e_codesign_optimal = Array.fold_left max 0 optima;
        optimal_candidates_used = n_used;
        e_codesign_heuristic = heur.Codesign.errors;
      }
    in
    List.map run_config specs

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

let overhead ctx =
  let seed = 11 and combos_per_config = 8 in
  let obf_regs = ref [] and obf_sw = ref [] in
  let cd_regs = ref [] and cd_sw = ref [] in
  let note_binding regs sw binding =
    regs := float_of_int (Rb_hls.Registers.count binding) :: !regs;
    sw := Rb_hls.Switching.rate binding ctx.profile :: !sw
  in
  let run_kind kind =
    let candidates = candidates_for ctx kind in
    let n_cands = Array.length candidates in
    List.iter
      (fun spec ->
        let locked_fus = spec.Codesign.locked_fus in
        let minterms_per_fu = spec.Codesign.minterms_per_fu in
        let rng =
          Rng.create
            (seed + (100 * List.length locked_fus) + minterms_per_fu
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
          let config = Config.make ~scheme:Rb_locking.Scheme.Sfll_rem ~locks in
          note_binding obf_regs obf_sw
            (Obf_binding.bind ctx.k config ctx.schedule ctx.allocation)
        done;
        (* Co-design heuristic binding, one per configuration. *)
        let heur = Codesign.heuristic ctx.k ctx.schedule ctx.allocation spec in
        note_binding cd_regs cd_sw heur.Codesign.binding)
      (grid ctx kind)
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

let quality ~trace ctx kind =
  let candidates = candidates_for ctx kind in
  let fus = Allocation.fu_ids ctx.allocation kind in
  if fus = [] || Array.length candidates = 0 then None
  else begin
    let spec =
      Codesign.make_spec ctx.allocation kind ~locked_fus:2 ~minterms_per_fu:2 candidates
    in
    let solution = Codesign.heuristic ctx.k ctx.schedule ctx.allocation spec in
    let config = solution.Codesign.config in
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

let post_binding ctx kind =
  let key_bits = 32 and minterms_per_fu = 2 in
  let candidates = candidates_for ctx kind in
  let fus = Allocation.fu_ids ctx.allocation kind in
  if fus = [] || Array.length candidates < minterms_per_fu then None
  else begin
    let spec =
      Codesign.make_spec ctx.allocation kind ~locked_fus:2 ~minterms_per_fu candidates
    in
    let solution = Codesign.heuristic ctx.k ctx.schedule ctx.allocation spec in
    let input_bits = Rb_dfg.Minterm.bits in
    let lambda_at minterms =
      Rb_locking.Resilience.lambda_minterms ~key_bits ~input_bits ~minterms
    in
    (* Post-binding locking on the area-aware design: per locked FU,
       greedily add the candidate minterm with the most occurrences
       over that FU's bound operations — the best a post-binding
       designer can do from the same candidate list C that co-design
       drew from. A pool is one FU's candidate counts, largest
       first. *)
    let per_fu_pool =
      fixed_binding_weights (Cost.cand_table ctx.k candidates) ctx.area_binding
        spec.Codesign.locked_fus
      |> List.map (fun (_, row) -> List.sort (fun a b -> Int.compare b a) (Array.to_list row))
    in
    (* lock the top-h minterms of each FU's own pool; grow h until the
       co-design error level is met or the pools run dry *)
    let errors_at h =
      List.fold_left
        (fun acc pool ->
          pool
          |> List.filteri (fun i _ -> i < h)
          |> List.fold_left ( + ) acc)
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

let sweep_suite ~pool ctxs =
  (* One task per (benchmark, kind): the pool's only level. *)
  Pool.map_list pool
    ~f:(fun (ctx, kind) ->
      ({ sk_benchmark = ctx.benchmark; sk_kind = kind }, sweep ctx kind))
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

type headline_summary = {
  hl_obf_mean : float;
  hl_cd_mean : float;
  hl_gap_configs : int;
  hl_gap_mean : float;
  hl_gap_worst : float;
}

let headline suite =
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
          if r.optimal_candidates_used = Codesign.n_candidates then begin
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

let overhead_suite ~pool ctxs = Pool.map_list pool ~f:overhead ctxs

let quality_suite ~pool ~trace_of ctxs =
  Pool.map_list pool ~f:(fun (ctx, kind) -> quality ~trace:(trace_of ctx) ctx kind)
    (both_kinds ctxs)
  |> List.filter_map Fun.id

let post_binding_suite ~pool ctxs =
  Pool.map_list pool ~f:(fun (ctx, kind) -> post_binding ctx kind)
    (both_kinds ctxs)
  |> List.filter_map Fun.id
