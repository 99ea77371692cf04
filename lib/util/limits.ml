type reason = Conflicts | Deadline | Cancelled

type t = {
  max_conflicts : int option;
  deadline_s : float option;
  cancels : bool Atomic.t list;
}

let none = { max_conflicts = None; deadline_s = None; cancels = [] }

let make ?max_conflicts ?deadline_s ?cancel () =
  { max_conflicts; deadline_s; cancels = Option.to_list cancel }

let conflicts n = make ~max_conflicts:n ()

let is_none t = t.max_conflicts = None && t.deadline_s = None && t.cancels = []

let new_cancel () = Atomic.make false
let cancel flag = Atomic.set flag true
let cancelled flag = Atomic.get flag

let with_cancel t flag = { t with cancels = flag :: t.cancels }

(* Deadlines compose by tightening: the earlier of the two wins, so a
   per-request deadline can only shrink whatever the daemon already
   imposed. *)
let with_deadline t deadline_s =
  let deadline_s =
    match t.deadline_s with Some d -> Float.min d deadline_s | None -> deadline_s
  in
  { t with deadline_s = Some deadline_s }

let has_budget t = t.max_conflicts <> None

(* The nondeterministic half: cancel flags first (one atomic read
   each), then the wall clock (a syscall — only consulted when a
   deadline is actually set). *)
let interrupted t =
  if List.exists Atomic.get t.cancels then Some Cancelled
  else
    match t.deadline_s with
    | Some d when Metrics.now_s () >= d -> Some Deadline
    | _ -> None

let check t ~conflicts =
  match t.max_conflicts with
  | Some b when conflicts >= b -> Some Conflicts
  | _ -> interrupted t

let reason_label = function
  | Conflicts -> "conflicts"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"

let m_budget = Metrics.counter ~scope:"limits" "budget_exhausted"
let m_deadline = Metrics.counter ~scope:"limits" "deadline_exceeded"
let m_cancelled = Metrics.counter ~scope:"limits" "cancelled"

let note = function
  | Conflicts -> Metrics.incr m_budget
  | Deadline -> Metrics.incr m_deadline
  | Cancelled -> Metrics.incr m_cancelled
