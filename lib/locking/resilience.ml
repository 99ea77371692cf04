let lambda ~key_bits ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Resilience.lambda: epsilon";
  if key_bits < 1 || key_bits > 1024 then invalid_arg "Resilience.lambda: key_bits";
  (* one correct key: N = 2^k - 1 wrong keys *)
  let n = Float.pow 2.0 (float_of_int key_bits) -. 1.0 in
  if n <= 1.0 then 1.0
  else begin
    (* N - eN = N(1 - e): expected wrong keys *surviving* one iteration. *)
    let surviving = n *. (1.0 -. epsilon) in
    let numerator = log (surviving /. (epsilon *. n *. (n -. 1.0))) in
    let denominator = log (surviving /. (n -. 1.0)) in
    if denominator >= 0.0 then
      (* Each iteration fails to shrink the wrong-key set in
         expectation: the attack is not expected to converge. *)
      infinity
    else if numerator >= 0.0 then
      (* One expected iteration already empties the set. *)
      1.0
    else Float.of_int (int_of_float (ceil (numerator /. denominator)))
  end

let lambda_minterms ~key_bits ~input_bits ~minterms =
  if input_bits < 1 || input_bits > 1024 then
    invalid_arg "Resilience.lambda_minterms: input_bits";
  if minterms < 1 then invalid_arg "Resilience.lambda_minterms: minterms";
  let space = Float.pow 2.0 (float_of_int input_bits) in
  let epsilon = float_of_int minterms /. space in
  if epsilon >= 1.0 then 1.0
  else lambda ~key_bits ~epsilon

let max_minterms_for ~key_bits ~input_bits ~min_lambda =
  if input_bits > 30 then invalid_arg "Resilience.max_minterms_for: input_bits";
  let space = 1 lsl input_bits in
  (* lambda is monotone decreasing in minterms: binary search. *)
  let meets m =
    m >= 1 && lambda_minterms ~key_bits ~input_bits ~minterms:m >= min_lambda
  in
  if not (meets 1) then 0
  else begin
    let lo = ref 1 and hi = ref (space - 1) in
    if meets !hi then !hi
    else begin
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if meets mid then lo := mid else hi := mid
      done;
      !lo
    end
  end
