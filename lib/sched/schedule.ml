module Dfg = Rb_dfg.Dfg

type t = {
  dfg : Dfg.t;
  cycle_of : int array;
  n_cycles : int;
  buckets : Dfg.op_id list array array; (* kind -> cycle -> ascending ids *)
  peak : int array; (* kind -> largest bucket length *)
}

let kind_index = function Dfg.Add -> 0 | Dfg.Mul -> 1

let make dfg ~cycle_of =
  let n = Dfg.op_count dfg in
  if Array.length cycle_of <> n then
    invalid_arg "Schedule.make: cycle array length mismatch";
  Array.iter (fun c -> if c < 0 then invalid_arg "Schedule.make: negative cycle") cycle_of;
  for id = 0 to n - 1 do
    List.iter
      (fun p ->
        if cycle_of.(p) >= cycle_of.(id) then
          invalid_arg
            (Printf.sprintf "Schedule.make: op %d (cycle %d) depends on op %d (cycle %d)" id
               cycle_of.(id) p cycle_of.(p)))
      (Dfg.predecessors dfg id)
  done;
  let n_cycles = 1 + Array.fold_left max 0 cycle_of in
  let buckets = Array.init 2 (fun _ -> Array.make n_cycles []) in
  (* Consing in descending id order leaves every bucket ascending. *)
  for id = n - 1 downto 0 do
    let k = kind_index (Dfg.op dfg id).Dfg.kind and c = cycle_of.(id) in
    buckets.(k).(c) <- id :: buckets.(k).(c)
  done;
  let peak =
    Array.map (Array.fold_left (fun m ops -> max m (List.length ops)) 0) buckets
  in
  { dfg; cycle_of = Array.copy cycle_of; n_cycles; buckets; peak }

let dfg t = t.dfg
let cycle_of t id = t.cycle_of.(id)
let n_cycles t = t.n_cycles

let ops_in_cycle t kind cycle =
  if cycle < 0 || cycle >= t.n_cycles then [] else t.buckets.(kind_index kind).(cycle)

let max_concurrency t kind = t.peak.(kind_index kind)

let pp fmt t =
  Format.fprintf fmt "%s scheduled in %d cycles (peak: %d add, %d mul)"
    (Dfg.name t.dfg) t.n_cycles (max_concurrency t Add) (max_concurrency t Mul)
