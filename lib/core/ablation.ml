module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Schedule = Rb_sched.Schedule
module Kmatrix = Rb_sim.Kmatrix
module Trace = Rb_sim.Trace
module Exec = Rb_sim.Exec
module Allocation = Rb_hls.Allocation
module Binding = Rb_hls.Binding
module Rng = Rb_util.Rng

type candidate_strategy = Most_common | Random_sample | Least_common

let strategy_name = function
  | Most_common -> "most common"
  | Random_sample -> "random sample"
  | Least_common -> "least common"

(* The seed of the random candidate sample. *)
let seed = 3

let candidate_list ~strategy k kind =
  let occurring () = Array.of_list (List.map fst (Kmatrix.all_minterms ~kind k)) in
  let n = Codesign.n_candidates in
  match strategy with
  | Most_common -> Codesign.top_candidates k kind
  | Least_common ->
    let all = occurring () in
    let len = Array.length all in
    Array.sub all (max 0 (len - n)) (min n len)
  | Random_sample ->
    let all = occurring () in
    Rng.shuffle (Rng.create seed) all;
    Array.sub all 0 (min n (Array.length all))

type strategy_row = {
  strategy : candidate_strategy;
  codesign_errors : int;
  candidate_mass : int;
}

let candidate_strategies (ctx : Experiments.context) kind =
  let k = ctx.Experiments.k in
  List.filter_map
    (fun strategy ->
      let candidates = candidate_list ~strategy k kind in
      Option.map
        (fun solution ->
          let candidate_mass =
            Array.fold_left (fun acc m -> acc + Kmatrix.total_occurrences k m) 0 candidates
          in
          { strategy; codesign_errors = solution.Codesign.errors; candidate_mass })
        (Experiments.probe k ctx.Experiments.schedule ctx.Experiments.allocation kind
           candidates))
    [ Most_common; Random_sample; Least_common ]

(* The probe on the top candidates of [k], for the drivers with no
   [None] to return. *)
let probe_exn ~caller k schedule allocation kind =
  match
    Experiments.probe k schedule allocation kind (candidate_list ~strategy:Most_common k kind)
  with
  | Some solution -> solution
  | None -> invalid_arg (caller ^ ": no FU of the kind or fewer than 2 candidates")

type generalization_row = {
  train_expected : int;
  train_measured : int;
  test_measured : int;
}

let generalization schedule trace kind =
  let half = Trace.length trace / 2 in
  if half < 1 then invalid_arg "Ablation.generalization: trace too short";
  let train = Trace.sub trace ~pos:0 ~len:half in
  let test = Trace.sub trace ~pos:half ~len:(Trace.length trace - half) in
  let allocation = Allocation.for_schedule schedule in
  let solution =
    probe_exn ~caller:"Ablation.generalization" (Kmatrix.build train) schedule allocation kind
  in
  let measure t =
    (Exec.application_errors schedule t
       ~fu_of_op:(Binding.fu_array solution.Codesign.binding)
       ~config:solution.Codesign.config)
      .Exec.error_events
  in
  {
    train_expected = solution.Codesign.errors;
    train_measured = measure train;
    test_measured = measure test;
  }

type sensitivity_row = {
  label : string;
  obf_vs_area : float;
  n_cycles : int;
}

(* Error-increase ratio of obfuscation-aware binding for one locked FU
   locking 2 minterms, averaged over candidate pairs, under a given
   schedule. One locked FU isolates the binding-freedom effect: with
   several FUs locking the *same* set, any binding covers a similar
   fraction of occurrences and the ratio collapses toward 1 (an effect
   the candidate-strategy ablation shows separately). *)
let ratio_for schedule trace kind =
  let allocation = Allocation.for_schedule schedule in
  let k = Kmatrix.build trace in
  let candidates = candidate_list ~strategy:Most_common k kind in
  match Codesign.make_spec allocation kind ~locked_fus:1 ~minterms_per_fu:2 candidates with
  | { Codesign.locked_fus = [ locked_fu ]; minterms_per_fu = 2; _ } ->
    let area = Rb_hls.Area_binding.bind schedule allocation in
    (* average over all pairs of the first 5 candidates *)
    let pairs =
      Rb_util.Combi.k_subsets
        (Array.sub candidates 0 (min 5 (Array.length candidates)))
        2
    in
    (* ratio of total errors across pairs, not mean of per-pair ratios:
       the zero-baseline floor makes per-pair ratios extremely noisy *)
    let e_obf = ref 0 and e_area = ref 0 in
    List.iter
      (fun pair ->
        let locks = [ (locked_fu, Array.to_list pair) ] in
        let config = Rb_locking.Config.make ~scheme:Rb_locking.Scheme.Sfll_rem ~locks in
        let obf = Obf_binding.bind k config schedule allocation in
        e_obf := !e_obf + Cost.expected_errors k obf config;
        e_area := !e_area + Cost.expected_errors k area config)
      pairs;
    Some (Experiments.ratio_vs !e_obf !e_area)
  | _ -> None

let allocation_sensitivity dfg make_trace =
  List.filter_map
    (fun fu_budget ->
      let limits = { Rb_sched.Scheduler.adders = fu_budget; multipliers = fu_budget } in
      let schedule = Rb_sched.Scheduler.path_based ~limits dfg in
      let trace = make_trace () in
      Option.map
        (fun r ->
          {
            label = string_of_int fu_budget ^ " FUs/kind";
            obf_vs_area = r;
            n_cycles = Schedule.n_cycles schedule;
          })
        (ratio_for schedule trace Dfg.Add))
    [ 1; 2; 3; 4 ]

type budget_row = { prefix_len : int; expected : int; measured : int }

let profiling_budget schedule full kind =
  let allocation = Allocation.for_schedule schedule in
  List.map
    (fun len ->
      let prefix = Trace.sub full ~pos:0 ~len in
      let solution =
        probe_exn ~caller:"Ablation.profiling_budget" (Kmatrix.build prefix) schedule
          allocation kind
      in
      let report =
        Exec.application_errors schedule full
          ~fu_of_op:(Binding.fu_array solution.Codesign.binding)
          ~config:solution.Codesign.config
      in
      {
        prefix_len = len;
        expected = solution.Codesign.errors;
        measured = report.Exec.error_events;
      })
    [ 8; 16; 32; 64; 128; 256 ]

let scheduler_sensitivity dfg make_trace =
  let schedules =
    [
      ("path-based", Rb_sched.Scheduler.path_based dfg);
      ( "force-directed",
        Rb_sched.Force_directed.schedule
          ~latency:(Dfg.critical_path_length dfg + 2)
          dfg );
    ]
  in
  List.filter_map
    (fun (label, schedule) ->
      let trace = make_trace () in
      Option.map
        (fun r ->
          { label; obf_vs_area = r; n_cycles = Schedule.n_cycles schedule })
        (ratio_for schedule trace Dfg.Add))
    schedules
