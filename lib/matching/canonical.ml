(* Canonical tie-breaking for optimal assignments.

   Tied optima are the norm, not the exception: binders produce
   massively tied instances (e.g. the codesign fast path weighs every
   unlocked FU 0), and which optimum the Hungarian core lands on is an
   artifact of its augmentation order. Binder output must not depend
   on that artifact, so every assignment is normalized to a canonical
   representative before it reaches a binder.

   The canonical form is the lexicographically smallest optimal
   assignment (compare [assign.(0)], then [assign.(1)], ...). Given
   any optimal dual [(u, v)] satisfying the solver contract
   (feasibility [w_ij >= u_i + v_j], tightness on matched cells,
   [v_j <= 0] with [v_j = 0] on unmatched columns), a row-perfect
   matching is optimal iff it uses only *tight* cells
   ([w_ij = u_i + v_j]) and covers every column with [v_j < 0]. That
   optimal face is the set of optimal matchings itself, so it is the
   same for every valid dual — and walking it lexicographically yields
   the same answer whichever optimum the solver returned.

   Procedure: fix rows in ascending order. For row [i], try its tight
   columns in ascending order, stopping at the column it already
   holds. A move of [i] from [j_old] to candidate [c] must transform
   the current matching into another member of the optimal face with
   [i] on [c], which takes two searches over tight cells through
   unfixed rows and unlocked columns:
   1. re-match the rows displaced by taking [c], Kuhn-style, ending at
      any free column (free columns have [v = 0], so using one is
      cost-neutral);
   2. if [j_old] must stay covered ([v_{j_old} < 0]) and step 1's path
      did not loop back to it, repair coverage: pull some row onto
      [j_old], then recursively re-cover the column that row vacated
      until a coverage-optional column is freed. (The classic
      single-chain search misses exactly this case — the witness
      alternating path passes *through* [j_old] via a row that was
      never displaced.)
   Both searches are standard augmenting-path arguments, so each
   succeeds iff some optimal-face matching with the desired prefix
   exists; the attempt is rolled back from a snapshot on failure. Once
   row [i] is fixed its column is locked. The pass is
   O(rows * tight-cells) per attempted candidate in the worst case and
   near-free on untied instances. *)

(* Relative tolerance for tightness tests. Integer-valued weights (all
   binder paths: edge weights, quarter-integer area scores, 1/256-grid
   power scores) make slacks exactly 0.0, so the tolerance only
   matters for arbitrary float instances. *)
let slack_tol w u v = 1e-9 *. (1.0 +. Float.abs w +. Float.abs u +. Float.abs v)

let lex_min cost ~assignment ~row_duals ~col_duals =
  let rows = Array.length cost in
  if rows = 0 then [||]
  else begin
    let cols = Array.length cost.(0) in
    let assign = Array.copy assignment in
    let col_row = Array.make cols (-1) in
    Array.iteri (fun r c -> col_row.(c) <- r) assign;
    (* Tight sub-graph, both row-major (ascending columns) and
       col-major (ascending rows) CSR. *)
    let is_tight r c w =
      let u = row_duals.(r) and v = col_duals.(c) in
      w -. u -. v <= slack_tol w u v
    in
    let row_off = Array.make (rows + 1) 0 in
    let col_off = Array.make (cols + 1) 0 in
    let count = ref 0 in
    for r = 0 to rows - 1 do
      Array.iteri
        (fun c w ->
          if is_tight r c w then begin
            incr count;
            col_off.(c + 1) <- col_off.(c + 1) + 1
          end)
        cost.(r);
      row_off.(r + 1) <- !count
    done;
    for c = 0 to cols - 1 do
      col_off.(c + 1) <- col_off.(c + 1) + col_off.(c)
    done;
    let row_adj = Array.make !count 0 in
    let col_adj = Array.make !count 0 in
    let col_fill = Array.copy col_off in
    let fill = ref 0 in
    for r = 0 to rows - 1 do
      Array.iteri
        (fun c w ->
          if is_tight r c w then begin
            row_adj.(!fill) <- c;
            incr fill;
            col_adj.(col_fill.(c)) <- r;
            col_fill.(c) <- col_fill.(c) + 1
          end)
        cost.(r)
    done;
    let must_cover c =
      col_duals.(c) < -.(1e-9 *. (1.0 +. Float.abs col_duals.(c)))
    in
    let locked = Array.make cols false in
    let visited = Array.make cols (-1) in
    let stamp = ref 0 in
    (* Snapshot-based rollback for failed attempts. *)
    let saved_assign = Array.make rows 0 in
    let saved_col_row = Array.make cols 0 in
    for i = 0 to rows - 1 do
      let j_old = assign.(i) in
      (* Phase 1: Kuhn re-match of displaced rows onto free columns. *)
      let rec rematch r =
        let ok = ref false in
        let a = ref row_off.(r) in
        while (not !ok) && !a < row_off.(r + 1) do
          let c = row_adj.(!a) in
          incr a;
          if (not locked.(c)) && visited.(c) <> !stamp then begin
            visited.(c) <- !stamp;
            let occupant = col_row.(c) in
            if occupant = -1 || rematch occupant then begin
              assign.(r) <- c;
              col_row.(c) <- r;
              ok := true
            end
          end
        done;
        !ok
      in
      (* Phase 2: re-cover column [c_star] (free, must-cover) by
         pulling an unfixed row onto it; recurse on the column that
         row vacates until a coverage-optional one is freed. *)
      let rec cover c_star =
        visited.(c_star) <- !stamp;
        let ok = ref false in
        let a = ref col_off.(c_star) in
        while (not !ok) && !a < col_off.(c_star + 1) do
          let r = col_adj.(!a) in
          incr a;
          (* Unfixed rows only (fixed rows, including [i], are pinned
             to locked columns or to [c]). *)
          if r > i then begin
            let c_r = assign.(r) in
            if visited.(c_r) <> !stamp then begin
              col_row.(c_r) <- -1;
              assign.(r) <- c_star;
              col_row.(c_star) <- r;
              if (not (must_cover c_r)) || cover c_r then ok := true
              else begin
                col_row.(c_star) <- -1;
                assign.(r) <- c_r;
                col_row.(c_r) <- r
              end
            end
          end
        done;
        !ok
      in
      let attempt c =
        Array.blit assign 0 saved_assign 0 rows;
        Array.blit col_row 0 saved_col_row 0 cols;
        incr stamp;
        visited.(c) <- !stamp;
        let occupant = col_row.(c) in
        col_row.(j_old) <- -1;
        assign.(i) <- c;
        col_row.(c) <- i;
        let ok =
          (occupant = -1 || rematch occupant)
          && ((not (must_cover j_old))
             || col_row.(j_old) <> -1
             ||
             (incr stamp;
              cover j_old))
        in
        if not ok then begin
          Array.blit saved_assign 0 assign 0 rows;
          Array.blit saved_col_row 0 col_row 0 cols
        end;
        ok
      in
      let a = ref row_off.(i) in
      let moved = ref false in
      while (not !moved) && !a < row_off.(i + 1) do
        let c = row_adj.(!a) in
        incr a;
        if c >= j_old then a := row_off.(i + 1)
        else if not locked.(c) then moved := attempt c
      done;
      locked.(assign.(i)) <- true
    done;
    assign
  end
