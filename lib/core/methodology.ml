module Config = Rb_locking.Config

type goal = { target_error_events : int; min_lambda : float }

type plan = {
  solution : Codesign.solution;
  minterms_per_fu : int;
  achieved_errors : int;
  predicted_lambda : float;
  meets_error_target : bool;
  meets_resilience : bool;
  exponential_topup : bool;
}

let plan_of ?key_bits goal minterms_per_fu (solution : Codesign.solution) =
  let predicted_lambda = Config.lambda_per_fu ?key_bits solution.config in
  let meets_error_target = solution.errors >= goal.target_error_events in
  let meets_resilience = predicted_lambda >= goal.min_lambda in
  {
    solution;
    minterms_per_fu;
    achieved_errors = solution.errors;
    predicted_lambda;
    meets_error_target;
    meets_resilience;
    exponential_topup = not meets_resilience;
  }

let design ?key_bits k schedule allocation (spec : Codesign.spec) goal =
  let limit = spec.minterms_per_fu in
  if limit < 1 then invalid_arg "Methodology.design: empty budget range";
  let solve minterms_per_fu =
    Codesign.heuristic k schedule allocation { spec with minterms_per_fu }
  in
  let rec grow m =
    let candidate_plan = plan_of ?key_bits goal m (solve m) in
    if candidate_plan.meets_error_target || m >= limit then candidate_plan
    else grow (m + 1)
  in
  grow 1
