(* What every workload shares: the closed-loop phase driver, latency
   samples, the workload interface and the process's peak memory. *)

let now = Rb_util.Metrics.now_s

(* A phase does a fixed amount of work — a number of whole passes for
   the pass-based workloads, of requests for serve — sized from the
   requested seconds by the workload's nominal rate. Fixed work keeps
   the mix of operations, the garbage the runtime must collect and the
   traced run's counters identical from run to run; only the time it
   takes is measured. *)
type phase = {
  completed : int;  (** correct operations *)
  latencies : float array;  (** seconds, a uniform sample of the correct operations *)
  failed : int;  (** operations that raised or failed an inline check *)
  elapsed : float;
}

type instance = {
  run : int -> phase;
      (** one closed-loop phase of that many units; successive phases
          continue the stream *)
  verify : unit -> int;  (** checks over every output so far; the number failed *)
  probe : unit -> unit;
      (** traced runs: re-time layer calls the last phase made inside
          library code the bench cannot wrap *)
  extras : unit -> (string * float) list;  (** workload-specific per-layer values *)
  teardown : unit -> unit;
}

type workload = {
  name : string;
  op_label : string;  (** what one latency sample is *)
  unit_label : string;  (** what a phase's units count: "passes" or "requests" *)
  units_per_s : float;  (** nominal rate on 2 domains; sizes every phase *)
  setup : Rb_util.Pool.t -> seed:int -> instance;
}

(* Latencies: a uniform sample of at most [capacity] values (reservoir
   sampling under a fixed seed), so memory stays flat however many
   operations a run completes. *)
module Samples = struct
  let capacity = 200_000

  type t = { data : float array; mutable seen : int; rng : Random.State.t }

  let create () = { data = Array.make capacity 0.0; seen = 0; rng = Random.State.make [| 17 |] }

  let add t x =
    if t.seen < capacity then t.data.(t.seen) <- x
    else begin
      let j = Random.State.int t.rng (t.seen + 1) in
      if j < capacity then t.data.(j) <- x
    end;
    t.seen <- t.seen + 1

  let length t = t.seen
  let to_array t = Array.sub t.data 0 (min t.seen capacity)
end

(* Nearest-rank percentile of unsorted samples; 0 when there are none. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
  end

(* [n] whole passes, each returning (latency, ok) per operation. *)
let passes n ~next_pass =
  let t0 = now () in
  let lat = Samples.create () in
  let failed = ref 0 in
  for _ = 1 to n do
    Array.iter (fun (l, ok) -> if ok then Samples.add lat l else incr failed) (next_pass ())
  done;
  {
    completed = Samples.length lat;
    latencies = Samples.to_array lat;
    failed = !failed;
    elapsed = now () -. t0;
  }

(* Peak resident set of this process, from VmHWM. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* The live data of the major heap: Gc.stat finishes a major cycle
   first, so only what is still reachable counts. *)
let live_mb () = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

(* Work files — spans, the serve socket — live here, inside the
   checkout. *)
let out_dir = "perfbench/out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755
