module Metrics = Rb_util.Metrics

type ready = { outcome : Outcome.t; cost : int; mutable last_use : int }

(* A pending entry carries a result box shared with every waiter: the
   computing worker publishes into the box before broadcasting, so a
   waiter that wakes up after the Ready entry has already been evicted
   (tiny cap, hot churn) still receives the outcome it waited for —
   eviction can shrink the cache but never break single-flight. *)
type pending = { mutable settled : Outcome.t option }

type entry = Ready of ready | Pending of pending

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  table : (string, entry) Hashtbl.t;
  cap_bytes : int option;
  mutable bytes : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; bytes : int }

let cache_hits = Metrics.counter ~scope:"cache" "hits"
let cache_misses = Metrics.counter ~scope:"cache" "misses"
let cache_evictions = Metrics.counter ~scope:"cache" "evictions"
let store_bytes = Metrics.gauge ~scope:"store" "bytes"

let create ?cap_bytes () =
  (match cap_bytes with
  | Some c when c < 1 -> invalid_arg "Store.create: cap_bytes must be >= 1"
  | _ -> ());
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 64;
    cap_bytes;
    bytes = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Byte cost of keeping an outcome resident: the words reachable from
   it. Outcomes are pure data, so the traversal is cheap relative to
   the compute it prices and the result is a stable property of the
   value, not of when it was built. *)
let cost_of outcome = Obj.reachable_words (Obj.repr outcome) * (Sys.word_size / 8)

let touch t r =
  t.tick <- t.tick + 1;
  r.last_use <- t.tick

(* Evict least-recently-used Ready entries until the resident bytes
   fit the cap. Pending entries are never victims (a computation in
   flight owns its slot), and ties cannot happen — [last_use] ticks
   are unique. [bytes] sums the costs of Ready entries only, so while
   [bytes > cap >= 1] some Ready entry is left to evict. Called with
   the mutex held. *)
let enforce_cap t =
  match t.cap_bytes with
  | None -> ()
  | Some cap ->
    while t.bytes > cap do
      let victim =
        Hashtbl.fold
          (fun key entry acc ->
            match (entry, acc) with
            | Pending _, _ -> acc
            | Ready r, Some (_, best) when best.last_use <= r.last_use -> acc
            | Ready r, _ -> Some (key, r))
          t.table None
      in
      match victim with
      | None -> assert false (* bytes > 0 implies a Ready entry *)
      | Some (key, r) ->
        Hashtbl.remove t.table key;
        t.bytes <- t.bytes - r.cost;
        t.evictions <- t.evictions + 1;
        Metrics.incr cache_evictions
    done;
    Metrics.set_gauge store_bytes (float_of_int t.bytes)

let rec find_or_compute t ~key f =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some (Ready r) ->
    t.hits <- t.hits + 1;
    touch t r;
    Mutex.unlock t.mutex;
    Metrics.incr cache_hits;
    r.outcome
  | Some (Pending p) ->
    (* Another worker is computing this key: wait on the shared box.
       The box (not the table) is the hand-off, so the outcome
       reaches every waiter even if the Ready entry is evicted before
       the waiter re-runs. An empty box after the broadcast means the
       computing worker failed; re-inspect and compute ourselves. *)
    Condition.wait t.cond t.mutex;
    (match p.settled with
    | Some outcome ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.mutex;
      Metrics.incr cache_hits;
      outcome
    | None ->
      Mutex.unlock t.mutex;
      find_or_compute t ~key f)
  | None ->
    let p = { settled = None } in
    Hashtbl.replace t.table key (Pending p);
    t.misses <- t.misses + 1;
    Mutex.unlock t.mutex;
    Metrics.incr cache_misses;
    let result =
      try f ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.mutex;
        Hashtbl.remove t.table key;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        Printexc.raise_with_backtrace e bt
    in
    let cost = cost_of result in
    Mutex.lock t.mutex;
    p.settled <- Some result;
    let r = { outcome = result; cost; last_use = 0 } in
    touch t r;
    Hashtbl.replace t.table key (Ready r);
    t.bytes <- t.bytes + cost;
    enforce_cap t;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    result

let stats t =
  Mutex.lock t.mutex;
  let s =
    { hits = t.hits; misses = t.misses; evictions = t.evictions; bytes = t.bytes }
  in
  Mutex.unlock t.mutex;
  s

let size t =
  Mutex.lock t.mutex;
  let n =
    Hashtbl.fold
      (fun _ e acc -> match e with Ready _ -> acc + 1 | Pending _ -> acc)
      t.table 0
  in
  Mutex.unlock t.mutex;
  n
