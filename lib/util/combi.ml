let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* After step [i], [acc] is C(n, i). Dividing out the gcd first keeps
   every step exact without an intermediate product, and C(n, i) grows
   with [i] up to min k (n - k), so the first step past [max_int]
   saturates the result. *)
let choose n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let rec go acc i =
      if i = k then acc
      else begin
        let g = gcd acc (i + 1) in
        let a = acc / g and f = (n - i) / ((i + 1) / g) in
        if a > max_int / f then max_int else go (a * f) (i + 1)
      end
    in
    go 1 0
  end

let multisets n k =
  if k < 0 then 0
  else if k = 0 then 1
  else if n > max_int - (k - 1) then max_int
  else choose (n + k - 1) k

(* Symbol [r] at position [i] leaves [multisets (n - r) (k - i - 1)]
   non-decreasing tails, and [offsets.(i).(s)] sums them over [r < s].
   A tuple's rank adds, per position, the tails it skips between the
   previous position's symbol and its own. *)
let multiset_rank n k =
  let offsets =
    Array.init k (fun i ->
        let row = Array.make (n + 1) 0 in
        for s = 1 to n do
          row.(s) <- row.(s - 1) + multisets (n - s + 1) (k - i - 1)
        done;
        row)
  in
  fun tuple ->
    if Array.length tuple <> k then invalid_arg "Combi.multiset_rank: tuple length";
    let rank = ref 0 and prev = ref 0 in
    for i = 0 to k - 1 do
      let row = offsets.(i) in
      rank := !rank + row.(tuple.(i)) - row.(!prev);
      prev := tuple.(i)
    done;
    !rank

(* Enumerate index vectors 0 <= c.(0) < c.(1) < ... < c.(k-1) < n in
   lexicographic order; [advance] finds the rightmost index that can
   still move and resets everything after it. *)
let fold_k_subsets arr k ~init ~f =
  let n = Array.length arr in
  if k < 0 || k > n then init
  else if k = 0 then f init [||]
  else begin
    let idx = Array.init k (fun i -> i) in
    let subset = Array.map (fun i -> arr.(i)) idx in
    let fill_from pos =
      for i = pos to k - 1 do
        subset.(i) <- arr.(idx.(i))
      done
    in
    let rec advance pos =
      if pos < 0 then None
      else if idx.(pos) < n - (k - pos) then begin
        idx.(pos) <- idx.(pos) + 1;
        for i = pos + 1 to k - 1 do
          idx.(i) <- idx.(i - 1) + 1
        done;
        Some pos
      end
      else advance (pos - 1)
    in
    let rec loop acc =
      let acc = f acc subset in
      match advance (k - 1) with
      | None -> acc
      | Some pos ->
        fill_from pos;
        loop acc
    in
    loop init
  end

let k_subsets arr k =
  let subsets =
    fold_k_subsets arr k ~init:[] ~f:(fun acc subset -> Array.copy subset :: acc)
  in
  List.rev subsets

let product_size sizes =
  let mul a b =
    if a = 0 || b = 0 then 0
    else if a > max_int / b then max_int
    else a * b
  in
  List.fold_left mul 1 sizes
