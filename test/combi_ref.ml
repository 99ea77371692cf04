let fold_cartesian choices ~init ~f =
  let n = Array.length choices in
  if Array.exists (fun c -> Array.length c = 0) choices then init
  else if n = 0 then f init [||]
  else begin
    let idx = Array.make n 0 in
    let tuple = Array.map (fun c -> c.(0)) choices in
    let rec advance pos =
      if pos < 0 then false
      else if idx.(pos) + 1 < Array.length choices.(pos) then begin
        idx.(pos) <- idx.(pos) + 1;
        tuple.(pos) <- choices.(pos).(idx.(pos));
        true
      end
      else begin
        idx.(pos) <- 0;
        tuple.(pos) <- choices.(pos).(0);
        advance (pos - 1)
      end
    in
    let rec run acc =
      let acc = f acc tuple in
      if advance (n - 1) then run acc else acc
    in
    run init
  end
