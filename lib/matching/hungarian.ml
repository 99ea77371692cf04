(* Hungarian algorithm with row/column potentials (the classical
   "e-maxx" formulation). Internally 1-indexed: row 0 and column 0 are
   sentinels, [p.(j)] is the row currently matched to column [j], and
   [way.(j)] remembers the alternating path used to augment. Each of
   the [n] phases grows the matching by one row in O(n*m). *)

let validate cost =
  let rows = Array.length cost in
  if rows = 0 then (0, 0)
  else begin
    let cols = Array.length cost.(0) in
    if cols = 0 then invalid_arg "Hungarian: empty row";
    Array.iter
      (fun row ->
        if Array.length row <> cols then invalid_arg "Hungarian: ragged matrix";
        Array.iter
          (fun w ->
            if not (Float.is_finite w) then
              invalid_arg "Hungarian: weight must be finite (no NaN/infinity)")
          row)
      cost;
    if rows > cols then invalid_arg "Hungarian: more rows than columns";
    (rows, cols)
  end

(* Requires a validated matrix with [1 <= rows <= cols]. Returns
   [(assign, scans)]. Among tied optima, the one returned is fixed by
   the scan order below: rows are added in index order, and each
   relaxation scan moves to the lowest-index column of least reduced
   cost. *)
let solve cost =
  let n = Array.length cost and m = Array.length cost.(0) in
  let scans = ref 0 in
  let u = Array.make (n + 1) 0.0 in
  let v = Array.make (m + 1) 0.0 in
  let p = Array.make (m + 1) 0 in
  let way = Array.make (m + 1) 0 in
  for i = 1 to n do
    p.(0) <- i;
    let j0 = ref 0 in
    let minv = Array.make (m + 1) infinity in
    let used = Array.make (m + 1) false in
    let continue = ref true in
    while !continue do
      incr scans;
      used.(!j0) <- true;
      let i0 = p.(!j0) in
      let delta = ref infinity in
      let j1 = ref 0 in
      for j = 1 to m do
        if not used.(j) then begin
          let cur = cost.(i0 - 1).(j - 1) -. u.(i0) -. v.(j) in
          if cur < minv.(j) then begin
            minv.(j) <- cur;
            way.(j) <- !j0
          end;
          if minv.(j) < !delta then begin
            delta := minv.(j);
            j1 := j
          end
        end
      done;
      for j = 0 to m do
        if used.(j) then begin
          u.(p.(j)) <- u.(p.(j)) +. !delta;
          v.(j) <- v.(j) -. !delta
        end
        else minv.(j) <- minv.(j) -. !delta
      done;
      j0 := !j1;
      if p.(!j0) = 0 then continue := false
    done;
    (* Unwind the alternating path recorded in [way]. *)
    let j0 = ref !j0 in
    while !j0 <> 0 do
      let j1 = way.(!j0) in
      p.(!j0) <- p.(j1);
      j0 := j1
    done
  done;
  let assign = Array.make n (-1) in
  for j = 1 to m do
    if p.(j) > 0 then assign.(p.(j) - 1) <- j - 1
  done;
  (assign, !scans)
