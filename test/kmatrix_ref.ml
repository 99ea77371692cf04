(* The original hash-table K matrix: one [(Minterm.t, int ref)
   Hashtbl.t] per operation, a single probe per (op, sample) in the
   build loop, and hash-table accumulation for the aggregate queries. *)

module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Exec = Rb_sim.Exec
module Trace = Rb_sim.Trace

type t = { dfg : Dfg.t; per_op : (Minterm.t, int ref) Hashtbl.t array }

let build trace =
  let dfg = Trace.dfg trace in
  let n = Dfg.op_count dfg in
  let per_op = Array.init n (fun _ -> Hashtbl.create 32) in
  let fast = Exec.Fast.make trace in
  let a = Exec.Fast.a fast and b = Exec.Fast.b fast in
  for s = 0 to Trace.length trace - 1 do
    Exec.Fast.eval_clean fast ~sample:s;
    for id = 0 to n - 1 do
      let m = Minterm.pack a.(id) b.(id) in
      let table = per_op.(id) in
      match Hashtbl.find_opt table m with
      | Some r -> incr r
      | None -> Hashtbl.add table m (ref 1)
    done
  done;
  { dfg; per_op }

let of_counts dfg entries =
  let n = Dfg.op_count dfg in
  let per_op = Array.init n (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun (op, counts) ->
      if op < 0 || op >= n then invalid_arg "Kmatrix_ref.of_counts: op id";
      List.iter
        (fun (m, c) ->
          if c < 0 then invalid_arg "Kmatrix_ref.of_counts: negative count";
          match Hashtbl.find_opt per_op.(op) m with
          | Some r -> r := !r + c
          | None -> Hashtbl.add per_op.(op) m (ref c))
        counts)
    entries;
  { dfg; per_op }

let count t m n =
  match Hashtbl.find_opt t.per_op.(n) m with Some r -> !r | None -> 0

let count_set t set n = Minterm.Set.fold (fun m acc -> acc + count t m n) set 0

let by_count_desc (m1, c1) (m2, c2) =
  match Int.compare c2 c1 with 0 -> Minterm.compare m1 m2 | c -> c

let op_histogram t n =
  Hashtbl.fold (fun m c acc -> (m, !c) :: acc) t.per_op.(n) []
  |> List.sort by_count_desc

let total_occurrences t m =
  Array.fold_left
    (fun acc table ->
      acc + (match Hashtbl.find_opt table m with Some r -> !r | None -> 0))
    0 t.per_op

let aggregate ?kind t =
  let include_op id =
    match kind with None -> true | Some k -> (Dfg.op t.dfg id).kind = k
  in
  let totals : (Minterm.t, int) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun id table ->
      if include_op id then
        Hashtbl.iter
          (fun m c ->
            let current = Option.value (Hashtbl.find_opt totals m) ~default:0 in
            Hashtbl.replace totals m (current + !c))
          table)
    t.per_op;
  totals

let all_minterms ?kind t =
  Hashtbl.fold (fun m c acc -> (m, c) :: acc) (aggregate ?kind t) []
  |> List.sort by_count_desc

let top_minterms ?kind t ~n =
  all_minterms ?kind t |> List.filteri (fun i _ -> i < n) |> List.map fst

let distinct_minterms t = Hashtbl.length (aggregate t)

let head_mass ?kind t ~n =
  let all = all_minterms ?kind t in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 all in
  if total = 0 then 0.0
  else begin
    let head =
      all |> List.filteri (fun i _ -> i < n)
      |> List.fold_left (fun acc (_, c) -> acc + c) 0
    in
    float_of_int head /. float_of_int total
  end

let op_concentration t m =
  let total = total_occurrences t m in
  if total = 0 then 0.0
  else begin
    let best = ref 0 in
    Array.iter
      (fun table ->
        let c = match Hashtbl.find_opt table m with Some r -> !r | None -> 0 in
        if c > !best then best := c)
      t.per_op;
    float_of_int !best /. float_of_int total
  end
