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

  (* Both kernels below are exact without a matching solver: unlocked
     FUs weigh 0, weights are non-negative, and rows <= FUs, so any
     partial matching of a cycle's rows into the locked FUs extends to
     a full binding of the same weight. A cycle's optimum is therefore
     its best partial matching into the locked FUs. *)

  (* Subset DP over bitmasks of the locked FUs, one row at a time:
     [best.(mask)] is the best partial matching into the FUs of
     [mask]. *)
  let best_errors t ~locks =
    Metrics.incr m_combinations;
    let subset_at = Array.make (Array.length t.fus) None in
    List.iter
      (fun (fu, subset) ->
        match Array.find_index (( = ) fu) t.fus with
        | None -> invalid_arg "Obf_binding.Fast: locked FU of the wrong kind"
        | Some j -> subset_at.(j) <- Some subset)
      locks;
    let weights =
      Array.of_list
        (List.filter_map (Option.map (class_weights t)) (Array.to_list subset_at))
    in
    let n_locks = Array.length weights in
    let full = (1 lsl n_locks) - 1 in
    let best = Array.make (full + 1) 0 in
    let total = ref 0 in
    Array.iteri
      (fun g rows ->
        Array.fill best 0 (full + 1) 0;
        Array.iter
          (fun cls ->
            for mask = full downto 1 do
              let b = ref best.(mask) in
              for l = 0 to n_locks - 1 do
                if mask land (1 lsl l) <> 0 then begin
                  let v = best.(mask lxor (1 lsl l)) + weights.(l).(cls) in
                  if v > !b then b := v
                end
              done;
              best.(mask) <- !b
            done)
          rows;
        total := !total + (t.group_mult.(g) * best.(full)))
      t.group_rows;
    !total

  (* Subset DP over bitmasks of a cycle's rows, one locked FU at a
     time: [state.(rm)] is the best partial matching of rows in [rm]
     into the FUs placed so far. Tuples sharing a prefix share its
     states, so a leaf costs one step per row. The leaf level runs
     group-outer: each group's states are read once for every subset
     of the last FU, and the leaves' totals are summed in [totals]
     before [f] sees them in order. *)
  let fold_product t ~fus ~subsets ~init ~f =
    Array.iteri
      (fun i fu ->
        if not (Array.mem fu t.fus) then
          invalid_arg "Obf_binding.Fast: locked FU of the wrong kind";
        for j = 0 to i - 1 do
          if fus.(j) = fu then invalid_arg "Obf_binding.Fast: duplicate locked FU"
        done)
      fus;
    let n_locks = Array.length fus and n_subsets = Array.length subsets in
    let n_groups = Array.length t.group_rows in
    let weights = Array.map (class_weights t) subsets in
    let states =
      Array.init n_locks (fun _ ->
          Array.map (fun rows -> Array.make (1 lsl Array.length rows) 0) t.group_rows)
    in
    let max_rows = Array.fold_left (fun acc rows -> max acc (Array.length rows)) 0 t.group_rows in
    (* [row_states.(r)]: a group's state with row [r] still free. *)
    let row_states = Array.make max_rows 0 in
    let totals = Array.make n_subsets 0 in
    let tuple = Array.make n_locks 0 in
    let leaves = ref 0 in
    let leaf prev lo acc =
      Array.fill totals lo (n_subsets - lo) 0;
      for g = 0 to n_groups - 1 do
        let st = prev.(g) and rows = t.group_rows.(g) and mult = t.group_mult.(g) in
        let n_rows = Array.length rows in
        let full = Array.length st - 1 in
        let all_placed = st.(full) in
        for r = 0 to n_rows - 1 do
          row_states.(r) <- st.(full lxor (1 lsl r))
        done;
        for s = lo to n_subsets - 1 do
          let w = weights.(s) in
          let b = ref all_placed in
          for r = 0 to n_rows - 1 do
            let v = row_states.(r) + w.(rows.(r)) in
            if v > !b then b := v
          done;
          totals.(s) <- totals.(s) + (mult * !b)
        done
      done;
      let acc = ref acc in
      for s = lo to n_subsets - 1 do
        tuple.(n_locks - 1) <- s;
        incr leaves;
        acc := f !acc tuple totals.(s)
      done;
      !acc
    in
    let rec place l acc =
      let prev = states.(l) in
      let lo = if l = 0 then 0 else tuple.(l - 1) in
      if l = n_locks - 1 then leaf prev lo acc
      else begin
        let next = states.(l + 1) in
        let acc = ref acc in
        for s = lo to n_subsets - 1 do
          tuple.(l) <- s;
          let w = weights.(s) in
          for g = 0 to n_groups - 1 do
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
          done;
          acc := place (l + 1) !acc
        done;
        !acc
      end
    in
    let acc = if n_locks = 0 then f init tuple 0 else place 0 init in
    Metrics.add m_combinations (if n_locks = 0 then 1 else !leaves);
    acc
end
