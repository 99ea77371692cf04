(* paper-sweep: the paper's co-design sweep (Sec. VI) with its settings —
   2000 combinations and 200k optimal assignments per configuration.
   One operation is one (benchmark, kind) pair swept over all nine
   locking configurations, as one sweep_suite task does; a pass is
   every pair of Streams.sweep_pairs once, two at a time on the pool,
   followed by Experiments.headline. *)

module Benchmark = Rb_workload.Benchmark
module Experiments = Rb_core.Experiments
module Codesign = Rb_core.Codesign
module Allocation = Rb_hls.Allocation
module Pool = Rb_util.Pool

let max_combos = 2000
let max_optimal = 200_000

(* One configuration result of the last phase, for the traced run's
   attribution. *)
type record = { req : int; ctx : Experiments.context; result : Experiments.config_result }

let setup pool ~seed =
  let contexts =
    Pool.map_list pool
      ~f:(fun name ->
        let b = Benchmark.find name in
        let schedule = Spans.with_span "sched.schedule" (fun _ -> Benchmark.schedule b) in
        let trace = Spans.with_span "workload.trace" (fun _ -> Benchmark.trace b) in
        (name, Spans.with_span "core.context" (fun _ -> Experiments.context ~name schedule trace)))
      (List.sort_uniq String.compare (List.map fst Streams.sweep_pairs))
  in
  let pairs =
    Array.of_list
      (List.mapi (fun i (name, kind) -> (i, List.assoc name contexts, kind)) Streams.sweep_pairs)
  in
  let n_pairs = Array.length pairs in
  let pass = ref 0 in
  let last = ref [] in
  let pair_walls = ref [] in
  let headline = ref None in
  let run_pair p sweep_seed (i, ctx, kind) =
    let req = (p * n_pairs) + i in
    Spans.with_span ~req "request" (fun sp ->
        let t0 = Measure.now () in
        let results =
          try
            Some
              (Spans.with_span ~parent:sp "core.sweep" (fun _ ->
                   Experiments.sweep ~seed:sweep_seed ~max_combos_per_config:max_combos
                     ~max_optimal_assignments:max_optimal ctx kind))
          with _ -> None
        in
        (Measure.now () -. t0, req, results))
  in
  let next_pass () =
    let p = !pass in
    incr pass;
    let out = Pool.map_array pool ~f:(run_pair p (Streams.sweep_seed ~seed p)) pairs in
    let suite =
      Array.to_list
        (Array.map2
           (fun (_, ctx, kind) (_, _, results) ->
             ( { Experiments.sk_benchmark = ctx.Experiments.benchmark; sk_kind = kind },
               Option.value ~default:[] results ))
           pairs out)
    in
    headline := Some (Experiments.headline suite);
    Array.map2
      (fun (_, ctx, kind) (lat, req, results) ->
        match results with
        | Some (_ :: _ as rs) ->
          let n_candidates = Array.length (Experiments.candidates_for ctx kind) in
          last := List.map (fun result -> { req; ctx; result }) rs @ !last;
          pair_walls := lat :: !pair_walls;
          (lat, List.for_all (Checks.sweep_ok ~n_candidates) rs)
        | _ -> (lat, false))
      pairs out
  in
  let run n =
    last := [];
    pair_walls := [];
    let phase = Measure.passes n ~next_pass in
    Option.iter
      (fun h ->
        Printf.eprintf
          "  headline of the last pass: obf-aware %.1fx, co-design %.1fx, heuristic gap \
           mean %.3f%% worst %.3f%% over %d configurations\n"
          h.Experiments.hl_obf_mean h.Experiments.hl_cd_mean h.Experiments.hl_gap_mean
          h.Experiments.hl_gap_worst h.Experiments.hl_gap_configs)
      !headline;
    phase
  in
  (* Experiments.sweep runs optimal and heuristic co-design inside, out
     of the bench's reach: re-run both on every configuration of the
     last phase, under their own spans, and require the same answers. *)
  let mismatches = Atomic.make 0 in
  let searched = Atomic.make 0 in
  let probe () =
    ignore
      (Pool.map_array pool (Array.of_list !last) ~f:(fun { req; ctx; result = r } ->
           let kind = r.Experiments.kind in
           let candidates = Experiments.candidates_for ctx kind in
           let spec =
             { Codesign.scheme = Rb_locking.Scheme.Sfll_rem;
               locked_fus =
                 List.filteri
                   (fun i _ -> i < r.Experiments.locked_fu_count)
                   (Allocation.fu_ids ctx.Experiments.allocation kind);
               minterms_per_fu = r.Experiments.minterms_per_fu; candidates }
           in
           let reduced =
             { spec with
               Codesign.candidates = Array.sub candidates 0 r.Experiments.optimal_candidates_used }
           in
           let k = ctx.Experiments.k and s = ctx.Experiments.schedule in
           let a = ctx.Experiments.allocation in
           (match
              Spans.with_span ~req "core.codesign_optimal" (fun _ ->
                  Codesign.optimal ~max_assignments:max_optimal k s a reduced)
            with
           | `Solution sol ->
             ignore (Atomic.fetch_and_add searched sol.Codesign.assignments_searched);
             if sol.Codesign.errors <> r.Experiments.e_codesign_optimal then
               Atomic.incr mismatches
           | `Too_large _ -> Atomic.incr mismatches);
           let h =
             Spans.with_span ~req "core.codesign_heuristic" (fun _ -> Codesign.heuristic k s a spec)
           in
           if h.Codesign.errors <> r.Experiments.e_codesign_heuristic then
             Atomic.incr mismatches))
  in
  let extras () =
    let sweep = Spans.total "core.sweep" in
    let optimal = Spans.total "core.codesign_optimal" in
    let heuristic = Spans.total "core.codesign_heuristic" in
    [
      ("core.sweep_pair_max_s", List.fold_left Float.max 0.0 !pair_walls);
      ("core.codesign_optimal_searched", float_of_int (Atomic.get searched));
      ("core.combo_eval_s", Float.max 0.0 (sweep -. optimal -. heuristic));
    ]
  in
  { Measure.run; verify = (fun () -> Atomic.get mismatches); probe; extras; teardown = ignore }

let workload =
  { Measure.name = "paper-sweep"; op_label = "pair"; unit_label = "passes"; units_per_s = 0.3;
    setup }
