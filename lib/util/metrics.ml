type counter = { c_key : string; value : int Atomic.t }
type gauge = { g_key : string; level : float Atomic.t }

(* One mutex per timer: observations are rare compared to counter
   bumps (instrumented code accumulates locally and flushes once per
   call), so contention is negligible. *)
type timer = {
  t_key : string;
  lock : Mutex.t;
  mutable count : int;
  mutable total : float;
  mutable mn : float;
  mutable mx : float;
}

type metric = C of counter | G of gauge | T of timer

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
(* Monotonic seconds (C stub over CLOCK_MONOTONIC): deadlines are
   stored as absolute now_s values, so an NTP step on the wall clock
   must not spuriously trip — or silently extend — every in-flight
   deadline, and timer distributions must never observe a negative
   duration. *)
external now_s : unit -> float = "rb_metrics_monotonic_now_s"

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

(* Spans live in the registry as timers under this reserved scope;
   snapshots split them back out. User scopes cannot collide with it
   because scopes may not contain '/'. *)
let span_scope = "span/"

let key ~scope name =
  if scope = "" || name = "" then invalid_arg "Metrics: empty scope or name";
  if String.contains scope '/' then invalid_arg "Metrics: scope contains '/'";
  scope ^ "/" ^ name

let register k make describe =
  Mutex.lock registry_lock;
  let metric =
    match Hashtbl.find_opt registry k with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.add registry k m;
      m
  in
  Mutex.unlock registry_lock;
  match describe metric with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Metrics: %S is already registered as another metric kind" k)

let counter ~scope name =
  register (key ~scope name)
    (fun () -> C { c_key = key ~scope name; value = Atomic.make 0 })
    (function C c -> Some c | _ -> None)

let gauge ~scope name =
  register (key ~scope name)
    (fun () -> G { g_key = key ~scope name; level = Atomic.make 0.0 })
    (function G g -> Some g | _ -> None)

let make_timer k =
  { t_key = k; lock = Mutex.create (); count = 0; total = 0.0;
    mn = infinity; mx = neg_infinity }

let timer ~scope name =
  register (key ~scope name)
    (fun () -> T (make_timer (key ~scope name)))
    (function T t -> Some t | _ -> None)

let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.value n)
let incr c = add c 1
let counter_value c = Atomic.get c.value

let set_gauge g v = if Atomic.get enabled_flag then Atomic.set g.level v

let observe_always t dt =
  Mutex.lock t.lock;
  t.count <- t.count + 1;
  t.total <- t.total +. dt;
  if dt < t.mn then t.mn <- dt;
  if dt > t.mx then t.mx <- dt;
  Mutex.unlock t.lock

let observe t dt = if Atomic.get enabled_flag then observe_always t dt

let time t f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_s () in
    Fun.protect ~finally:(fun () -> observe_always t (now_s () -. t0)) f
  end

(* ---------------------------------------------------------------- spans *)

let span_stack : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span_timer path =
  let k = span_scope ^ path in
  register k
    (fun () -> T (make_timer k))
    (function T t -> Some t | _ -> None)

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get span_stack in
    let path = match stack with [] -> name | top :: _ -> top ^ "/" ^ name in
    let t = span_timer path in
    Domain.DLS.set span_stack (path :: stack);
    let t0 = now_s () in
    Fun.protect
      ~finally:(fun () ->
        observe_always t (now_s () -. t0);
        Domain.DLS.set span_stack stack)
      f
  end

(* ------------------------------------------------------------ snapshots *)

type dist = { count : int; total : float; min : float; max : float }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * dist) list;
  spans : (string * dist) list;
}

let dist_of_timer t =
  Mutex.lock t.lock;
  let d = { count = t.count; total = t.total; min = t.mn; max = t.mx } in
  Mutex.unlock t.lock;
  d

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ -> function
      | C c -> Atomic.set c.value 0
      | G g -> Atomic.set g.level 0.0
      | T t ->
        Mutex.lock t.lock;
        t.count <- 0;
        t.total <- 0.0;
        t.mn <- infinity;
        t.mx <- neg_infinity;
        Mutex.unlock t.lock)
    registry;
  Mutex.unlock registry_lock

let by_key (a, _) (b, _) = String.compare a b

let strip_span k = String.sub k (String.length span_scope)
    (String.length k - String.length span_scope)

let is_span k =
  String.length k >= String.length span_scope
  && String.sub k 0 (String.length span_scope) = span_scope

let snapshot () =
  Mutex.lock registry_lock;
  let metrics = Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry [] in
  Mutex.unlock registry_lock;
  let counters = ref [] and gauges = ref [] and timers = ref [] and spans = ref [] in
  List.iter
    (fun (k, m) ->
      match m with
      | C c -> counters := (k, Atomic.get c.value) :: !counters
      | G g -> gauges := (k, Atomic.get g.level) :: !gauges
      | T t ->
        if is_span k then spans := (strip_span k, dist_of_timer t) :: !spans
        else timers := (k, dist_of_timer t) :: !timers)
    metrics;
  {
    counters = List.sort by_key !counters;
    gauges = List.sort by_key !gauges;
    timers = List.sort by_key !timers;
    spans = List.sort by_key !spans;
  }

let counter_deltas ~before ~after =
  let base = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace base k v) before.counters;
  after.counters
  |> List.filter_map (fun (k, v) ->
         let d = v - Option.value (Hashtbl.find_opt base k) ~default:0 in
         if d = 0 then None else Some (k, d))

(* ----------------------------------------------------------- rendering *)

let counters_to_json counters =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters)

let dist_to_json d =
  Json.Obj
    [
      ("count", Json.Int d.count);
      ("total_s", Json.Float d.total);
      ("min_s", if d.count = 0 then Json.Null else Json.Float d.min);
      ("max_s", if d.count = 0 then Json.Null else Json.Float d.max);
    ]

let to_json s =
  Json.Obj
    [
      ("counters", counters_to_json s.counters);
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.float_or_string v)) s.gauges));
      ("timers", Json.Obj (List.map (fun (k, d) -> (k, dist_to_json d)) s.timers));
      ("spans", Json.Obj (List.map (fun (k, d) -> (k, dist_to_json d)) s.spans));
    ]
