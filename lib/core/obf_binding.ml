module Dfg = Rb_dfg.Dfg
module Schedule = Rb_sched.Schedule
module Allocation = Rb_hls.Allocation
module Bind_engine = Rb_hls.Bind_engine
module Metrics = Rb_util.Metrics

let bind k config schedule allocation =
  let weight ~kind:_ ~cycle:_ ~op ~fu =
    float_of_int (Cost.edge_weight k config ~fu ~op)
  in
  Bind_engine.bind ~objective:`Maximize ~weight schedule allocation

let m_combinations = Metrics.counter ~scope:"codesign" "combinations"

module Fast = struct
  (* An operation's weight on an FU locking candidate subset [s] is the
     sum of its candidate counts over [s], so operations with equal
     count vectors ("classes") weigh the same everywhere, and cycles
     with equal class multisets have equal optima. *)
  type t = {
    fus : int array;
    cand_class : int array array; (* candidate -> class -> count *)
    n_classes : int;
    group_rows : int array array; (* classes of one cycle shape *)
    group_mult : int array; (* cycles of that shape *)
  }

  let prepare table schedule allocation ~kind =
    let fus = Array.of_list (Allocation.fu_ids allocation kind) in
    let n_cands = Array.length (Cost.candidates table) in
    let class_of_vec = Hashtbl.create 64 in
    let vecs = ref [] in
    let class_of op =
      let vec = Array.init n_cands (fun cand -> Cost.cand_count table ~cand ~op) in
      if Array.for_all (( = ) 0) vec then None
      else
        match Hashtbl.find_opt class_of_vec vec with
        | Some cls -> Some cls
        | None ->
          let cls = Hashtbl.length class_of_vec in
          Hashtbl.add class_of_vec vec cls;
          vecs := vec :: !vecs;
          Some cls
    in
    let group_of_shape = Hashtbl.create 64 in
    let shapes = ref [] in
    for c = 0 to Schedule.n_cycles schedule - 1 do
      let ops = Schedule.ops_in_cycle schedule kind c in
      if List.length ops > Array.length fus then
        invalid_arg "Obf_binding.Fast.prepare: allocation too small";
      (* Zero rows never change a max-weight total when rows <= FUs. *)
      let shape = Array.of_list (List.filter_map class_of ops) in
      Array.sort Int.compare shape;
      if Array.length shape > 0 then
        match Hashtbl.find_opt group_of_shape shape with
        | Some mult -> incr mult
        | None ->
          let mult = ref 1 in
          Hashtbl.add group_of_shape shape mult;
          shapes := (shape, mult) :: !shapes
    done;
    let vecs = Array.of_list (List.rev !vecs) in
    let shapes = Array.of_list (List.rev !shapes) in
    {
      fus;
      cand_class = Array.init n_cands (fun cand -> Array.map (fun v -> v.(cand)) vecs);
      n_classes = Array.length vecs;
      group_rows = Array.map fst shapes;
      group_mult = Array.map (fun (_, mult) -> !mult) shapes;
    }

  (* [class_weights t subset].(cls): weight of class [cls] on an FU
     locking candidate subset [subset] (Eqn. 3). *)
  let class_weights t subset =
    let w = Array.make t.n_classes 0 in
    Array.iter
      (fun cand ->
        let counts = t.cand_class.(cand) in
        for cls = 0 to t.n_classes - 1 do
          w.(cls) <- w.(cls) + counts.(cls)
        done)
      subset;
    w

  (* Both entry points below are exact without a matching solver:
     unlocked FUs weigh 0, weights are non-negative, and rows <= FUs,
     so any partial matching of a cycle's rows into the locked FUs
     extends to a full binding of the same weight. A cycle's optimum is
     therefore its best partial matching into the locked FUs, found by
     a subset DP over bitmasks of the cycle's rows, one locked FU at a
     time: a group's state [st.(rm)] is the best partial matching of
     the rows in [rm] into the FUs placed so far. *)

  let check_fus t fus =
    Array.iteri
      (fun i fu ->
        if not (Array.mem fu t.fus) then
          invalid_arg "Obf_binding.Fast: locked FU of the wrong kind";
        for j = 0 to i - 1 do
          if fus.(j) = fu then invalid_arg "Obf_binding.Fast: duplicate locked FU"
        done)
      fus

  (* Every group's state with no FU placed. *)
  let empty_states t =
    Array.map (fun rows -> Array.make (1 lsl Array.length rows) 0) t.group_rows

  (* [next] := [prev] with one more locked FU, of class weights [w],
     placed. *)
  let place t w prev next =
    for g = 0 to Array.length t.group_rows - 1 do
      let st = prev.(g) and nx = next.(g) and rows = t.group_rows.(g) in
      let n_rows = Array.length rows in
      for rm = 0 to Array.length st - 1 do
        let b = ref st.(rm) in
        for r = 0 to n_rows - 1 do
          if rm land (1 lsl r) <> 0 then begin
            let v = st.(rm lxor (1 lsl r)) + w.(rows.(r)) in
            if v > !b then b := v
          end
        done;
        nx.(rm) <- !b
      done
    done

  (* [totals.(s)], for each [s >= lo]: the total over all cycles with
     one more locked FU, of class weights [weights.(s)], placed on
     [prev]. The last FU takes at most one row [r], the placed FUs the
     rest, so a group's optimum reads only its full state and the
     states with one row free. Group-outer: those are read once per
     group for every [s]. *)
  let leaf t weights prev ~lo totals =
    let n_subsets = Array.length weights in
    Array.fill totals lo (n_subsets - lo) 0;
    for g = 0 to Array.length t.group_rows - 1 do
      let st = prev.(g) and rows = t.group_rows.(g) and mult = t.group_mult.(g) in
      let n_rows = Array.length rows in
      let full = Array.length st - 1 in
      let all_placed = st.(full) in
      let row_states = Array.init n_rows (fun r -> st.(full lxor (1 lsl r))) in
      for s = lo to n_subsets - 1 do
        let w = weights.(s) in
        let b = ref all_placed in
        for r = 0 to n_rows - 1 do
          let v = row_states.(r) + w.(rows.(r)) in
          if v > !b then b := v
        done;
        totals.(s) <- totals.(s) + (mult * !b)
      done
    done

  let extend t ~fixed ~fu ~subsets =
    check_fus t (Array.of_list (fu :: List.map fst fixed));
    let states =
      List.fold_left
        (fun prev (_, subset) ->
          let next = empty_states t in
          place t (class_weights t subset) prev next;
          next)
        (empty_states t) fixed
    in
    let totals = Array.make (Array.length subsets) 0 in
    leaf t (Array.map (class_weights t) subsets) states ~lo:0 totals;
    Metrics.add m_combinations (Array.length subsets);
    totals

  (* Tuples sharing a prefix share its states, so a leaf costs one
     step per row. *)
  let fold_product t ~fus ~subsets ~init ~f =
    check_fus t fus;
    let n_locks = Array.length fus and n_subsets = Array.length subsets in
    let weights = Array.map (class_weights t) subsets in
    let states = Array.init n_locks (fun _ -> empty_states t) in
    let totals = Array.make n_subsets 0 in
    let tuple = Array.make n_locks 0 in
    let leaves = ref 0 in
    let rec go l acc =
      let prev = states.(l) in
      let lo = if l = 0 then 0 else tuple.(l - 1) in
      let acc = ref acc in
      if l = n_locks - 1 then begin
        leaf t weights prev ~lo totals;
        for s = lo to n_subsets - 1 do
          tuple.(l) <- s;
          incr leaves;
          acc := f !acc tuple totals.(s)
        done
      end
      else begin
        for s = lo to n_subsets - 1 do
          tuple.(l) <- s;
          place t weights.(s) prev states.(l + 1);
          acc := go (l + 1) !acc
        done
      end;
      !acc
    in
    let acc = if n_locks = 0 then f init tuple 0 else go 0 init in
    Metrics.add m_combinations (if n_locks = 0 then 1 else !leaves);
    acc
end
