type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  space_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  capacity : int;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Deterministic counters: elements are counted per map call whatever
   executes them, so totals match across worker counts. Queue-wait and
   busy time are wall-clock and live on the timing side of the
   Metrics contract. *)
let m_maps = Metrics.counter ~scope:"pool" "maps"
let m_tasks = Metrics.counter ~scope:"pool" "tasks"
let t_queue_wait = Metrics.timer ~scope:"pool" "queue_wait"
let t_task_busy = Metrics.timer ~scope:"pool" "task_busy"

(* Workers flag their domain so a map issued from inside a task falls
   back to inline execution instead of blocking on its own pool. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

let worker_loop t =
  Domain.DLS.set inside_worker true;
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.work_available t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex
    else begin
      let task = Queue.pop t.queue in
      Condition.signal t.space_available;
      Mutex.unlock t.mutex;
      task ();
      loop ()
    end
  in
  loop ()

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      space_available = Condition.create ();
      queue = Queue.create ();
      capacity = 4 * jobs;
      closed = false;
      workers = [];
    }
  in
  if jobs > 1 then
    t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let parallel t = t.jobs > 1 && not (Domain.DLS.get inside_worker)

let submit t task =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.map: pool is shut down"
  end;
  while Queue.length t.queue >= t.capacity do
    Condition.wait t.space_available t.mutex
  done;
  Queue.push task t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex

let check_open t =
  Mutex.lock t.mutex;
  let closed = t.closed in
  Mutex.unlock t.mutex;
  if closed then invalid_arg "Pool.map: pool is shut down"

let map_array t ~f arr =
  let n = Array.length arr in
  check_open t;
  Metrics.incr m_maps;
  Metrics.add m_tasks n;
  if (not (parallel t)) || n <= 1 then Array.map f arr
  else begin
    let timed = Metrics.enabled () in
    let results = Array.make n None in
    let errors = Array.make n None in
    let remaining = ref n in
    let mutex = Mutex.create () in
    let finished = Condition.create () in
    for i = 0 to n - 1 do
      let submitted = if timed then Metrics.now_s () else 0.0 in
      submit t (fun () ->
          let started = if timed then Metrics.now_s () else 0.0 in
          let outcome =
            match f arr.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          if timed then begin
            Metrics.observe t_queue_wait (started -. submitted);
            Metrics.observe t_task_busy (Metrics.now_s () -. started)
          end;
          Mutex.lock mutex;
          (match outcome with
          | Ok v -> results.(i) <- Some v
          | Error err -> errors.(i) <- Some err);
          decr remaining;
          if !remaining = 0 then Condition.signal finished;
          Mutex.unlock mutex)
    done;
    Mutex.lock mutex;
    while !remaining > 0 do
      Condition.wait finished mutex
    done;
    Mutex.unlock mutex;
    (* Re-raise deterministically: the lowest-indexed failure wins,
       independent of which worker hit it first. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t ~f l = Array.to_list (map_array t ~f (Array.of_list l))

(* A bounded wait-free single-round exchange buffer. Writers claim
   slots with one fetch-and-add and write their slot unshared; pushes
   past capacity are dropped (the producers are speculative — losing
   an exported clause costs nothing but a little speed). [drain] is
   only sound at a quiescent point: all producers must have returned
   (e.g. the pool map that ran them has joined) so their slot writes
   happen-before the reads. The SAT-attack portfolio drains between
   solve rounds, after the racing map_array call returns. *)
module Share_buffer = struct
  type 'a t = { slots : 'a option array; cursor : int Atomic.t }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Share_buffer.create: capacity must be >= 1";
    { slots = Array.make capacity None; cursor = Atomic.make 0 }

  let capacity b = Array.length b.slots

  let push b x =
    let i = Atomic.fetch_and_add b.cursor 1 in
    if i < Array.length b.slots then begin
      b.slots.(i) <- Some x;
      true
    end
    else false

  let drain b =
    let n = min (Atomic.get b.cursor) (Array.length b.slots) in
    let out = ref [] in
    for i = n - 1 downto 0 do
      (match b.slots.(i) with Some x -> out := x :: !out | None -> ());
      b.slots.(i) <- None
    done;
    Atomic.set b.cursor 0;
    !out
end

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.closed <- true;
  t.workers <- [];
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
