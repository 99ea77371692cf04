module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Combi = Rb_util.Combi
module Allocation = Rb_hls.Allocation
module Config = Rb_locking.Config

type spec = {
  scheme : Rb_locking.Scheme.t;
  locked_fus : int list;
  minterms_per_fu : int;
  candidates : Minterm.t array;
}

type solution = {
  config : Config.t;
  binding : Rb_hls.Binding.t;
  errors : int;
  assignments_searched : int;
}

let n_candidates = 10

let top_candidates k kind = Array.of_list (Rb_sim.Kmatrix.top_minterms ~kind k ~n:n_candidates)

let make_spec allocation kind ~locked_fus ~minterms_per_fu candidates =
  {
    scheme = Rb_locking.Scheme.Sfll_rem;
    locked_fus = List.filteri (fun i _ -> i < locked_fus) (Allocation.fu_ids allocation kind);
    minterms_per_fu = min minterms_per_fu (Array.length candidates);
    candidates;
  }

let validate_spec allocation spec =
  (match spec.locked_fus with
   | [] -> invalid_arg "Codesign: no locked FUs"
   | fu :: rest ->
     let kind = Allocation.kind_of_fu allocation fu in
     List.iter
       (fun fu' ->
         if Allocation.kind_of_fu allocation fu' <> kind then
           invalid_arg "Codesign: locked FUs of mixed kinds")
       rest);
  if List.length (List.sort_uniq Int.compare spec.locked_fus) <> List.length spec.locked_fus
  then invalid_arg "Codesign: duplicate locked FU";
  if spec.minterms_per_fu < 1 then invalid_arg "Codesign: minterms_per_fu";
  if spec.minterms_per_fu > Array.length spec.candidates then
    invalid_arg "Codesign: budget exceeds candidate list";
  Allocation.kind_of_fu allocation (List.hd spec.locked_fus)

let search_space spec =
  Combi.multisets
    (Combi.choose (Array.length spec.candidates) spec.minterms_per_fu)
    (List.length spec.locked_fus)

(* All size-m subsets of candidate indices, as arrays. *)
let index_subsets spec =
  let indices = Array.init (Array.length spec.candidates) Fun.id in
  Array.of_list (Combi.k_subsets indices spec.minterms_per_fu)

let finalize k schedule allocation spec table locks searched =
  let config =
    Config.make ~scheme:spec.scheme
      ~locks:(List.map (fun (fu, subset) -> (fu, Cost.subset_minterms table subset)) locks)
  in
  let binding = Obf_binding.bind k config schedule allocation in
  let errors = Cost.expected_errors k binding config in
  { config; binding; errors; assignments_searched = searched }

let optimal ?(max_assignments = 500_000) k schedule allocation spec =
  let kind = validate_spec allocation spec in
  let space = search_space spec in
  if space > max_assignments then `Too_large space
  else begin
    let table = Cost.cand_table k spec.candidates in
    let fast = Obf_binding.Fast.prepare table schedule allocation ~kind in
    let subsets = index_subsets spec in
    let fus = Array.of_list spec.locked_fus in
    let best = ref None in
    let searched = ref 0 in
    let consider () tuple errors =
      incr searched;
      match !best with
      | Some (top, _) when top >= errors -> ()
      | Some _ | None ->
        (* Copy: the tuple array is reused by the enumerator. *)
        best := Some (errors, Array.copy tuple)
    in
    Obf_binding.Fast.fold_product fast ~fus ~subsets ~init:() ~f:consider;
    match !best with
    | None -> assert false
    | Some (_, tuple) ->
      let locks = Array.to_list (Array.mapi (fun i s -> (fus.(i), subsets.(s))) tuple) in
      `Solution (finalize k schedule allocation spec table locks !searched)
  end

let heuristic k schedule allocation spec =
  let kind = validate_spec allocation spec in
  let table = Cost.cand_table k spec.candidates in
  let fast = Obf_binding.Fast.prepare table schedule allocation ~kind in
  let subsets = index_subsets spec in
  (* Each step keeps the first subset of maximum errors. *)
  let fix_next fixed fu =
    let scores = Obf_binding.Fast.extend fast ~fixed ~fu ~subsets in
    let best = ref 0 in
    Array.iteri (fun i errors -> if errors > scores.(!best) then best := i) scores;
    (fu, subsets.(!best)) :: fixed
  in
  let locks = List.fold_left fix_next [] spec.locked_fus in
  let searched = List.length spec.locked_fus * Array.length subsets in
  finalize k schedule allocation spec table (List.rev locks) searched
