module Dfg = Rb_dfg.Dfg

type limits = { adders : int; multipliers : int }

let default_limits = { adders = 3; multipliers = 3 }

let limit_for limits = function
  | Dfg.Add -> limits.adders
  | Dfg.Mul -> limits.multipliers

let asap dfg =
  let n = Dfg.op_count dfg in
  let cycle = Array.make n 0 in
  for id = 0 to n - 1 do
    let ready =
      List.fold_left (fun acc p -> max acc (cycle.(p) + 1)) 0 (Dfg.predecessors dfg id)
    in
    cycle.(id) <- ready
  done;
  cycle

(* Longest path (in operations) from each op to any sink; the priority
   function of the list scheduler. *)
let path_to_sink dfg =
  let n = Dfg.op_count dfg in
  let dist = Array.make n 1 in
  for id = n - 1 downto 0 do
    let d =
      List.fold_left (fun acc s -> max acc (dist.(s) + 1)) 1 (Dfg.successors dfg id)
    in
    dist.(id) <- d
  done;
  dist

let path_based ?(limits = default_limits) dfg =
  if limits.adders <= 0 || limits.multipliers <= 0 then
    invalid_arg "Scheduler.path_based: non-positive limits";
  let n = Dfg.op_count dfg in
  let priority = path_to_sink dfg in
  let cycle = Array.make n (-1) in
  let unscheduled = ref n in
  (* usage.(cycle) is looked up lazily through a growable table. *)
  let usage : (int * Dfg.op_kind, int) Hashtbl.t = Hashtbl.create 64 in
  let used c kind = Option.value (Hashtbl.find_opt usage (c, kind)) ~default:0 in
  let book c kind = Hashtbl.replace usage (c, kind) (used c kind + 1) in
  let ready_cycle id =
    List.fold_left (fun acc p -> max acc (cycle.(p) + 1)) 0 (Dfg.predecessors dfg id)
  in
  let is_ready id =
    cycle.(id) = -1 && List.for_all (fun p -> cycle.(p) >= 0) (Dfg.predecessors dfg id)
  in
  while !unscheduled > 0 do
    let ready =
      List.init n Fun.id |> List.filter is_ready
      |> List.sort (fun a b ->
             match Int.compare priority.(b) priority.(a) with
             | 0 -> Int.compare a b
             | c -> c)
    in
    assert (ready <> []);
    let place id =
      let kind = (Dfg.op dfg id).kind in
      let cap = limit_for limits kind in
      let rec first_free c = if used c kind < cap then c else first_free (c + 1) in
      let c = first_free (ready_cycle id) in
      cycle.(id) <- c;
      book c kind;
      decr unscheduled
    in
    List.iter place ready
  done;
  Schedule.make dfg ~cycle_of:cycle
