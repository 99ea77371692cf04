module Minterm = Rb_dfg.Minterm

type t = {
  scheme : Scheme.t;
  locks : (int * Minterm.Set.t) list; (* ascending fu id *)
}

let make ~scheme ~locks =
  let fus = List.map fst locks in
  let sorted = List.sort_uniq Int.compare fus in
  if List.length sorted <> List.length fus then invalid_arg "Config.make: duplicate FU";
  List.iter (fun fu -> if fu < 0 then invalid_arg "Config.make: negative FU id") fus;
  let locks =
    List.map
      (fun (fu, ms) ->
        if ms = [] then invalid_arg "Config.make: empty minterm list";
        (fu, Minterm.Set.of_list ms))
      locks
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  { scheme; locks }

let scheme t = t.scheme

let locked_fus t = List.map fst t.locks

let minterms_of t fu =
  match List.assoc_opt fu t.locks with
  | Some set -> set
  | None -> Minterm.Set.empty

let is_locked_input t ~fu m = Minterm.Set.mem m (minterms_of t fu)

let corrupt output = output lxor 1

let resilience ?key_bits t fu =
  let input_bits = Minterm.bits in
  let minterms = Minterm.Set.cardinal (minterms_of t fu) in
  let key_bits =
    match key_bits with
    | Some k -> k
    | None -> Scheme.key_bits t.scheme ~minterms ~input_bits
  in
  (key_bits, Resilience.lambda_minterms ~key_bits ~input_bits ~minterms)

let lambda_per_fu ?key_bits t =
  List.fold_left
    (fun acc (fu, _) -> min acc (snd (resilience ?key_bits t fu)))
    infinity t.locks

let pp fmt t =
  Format.fprintf fmt "%s:" (Scheme.name t.scheme);
  List.iter
    (fun (fu, set) ->
      Format.fprintf fmt " FU%d{" fu;
      let first = ref true in
      Minterm.Set.iter
        (fun m ->
          if not !first then Format.pp_print_char fmt ' ';
          first := false;
          Minterm.pp fmt m)
        set;
      Format.pp_print_char fmt '}')
    t.locks
