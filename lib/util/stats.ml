let mean = function
  | [] -> 0.0
  | values -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let stdev values =
  match values with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean values in
    let n = float_of_int (List.length values) in
    let ss = List.fold_left (fun acc v -> acc +. ((v -. m) *. (v -. m))) 0.0 values in
    sqrt (ss /. (n -. 1.0))

let median = function
  | [] -> 0.0
  | values ->
    let sorted = List.sort compare values in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty list"
  | v :: rest -> List.fold_left min v rest

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | v :: rest -> List.fold_left max v rest

let ratio ~num ~den =
  if den = 0.0 then if num = 0.0 then 1.0 else infinity else num /. den
