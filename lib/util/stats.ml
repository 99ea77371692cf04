let mean = function
  | [] -> 0.0
  | values -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let median = function
  | [] -> 0.0
  | values ->
    let sorted = List.sort compare values in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | v :: rest -> List.fold_left max v rest
