(* serve-cold and serve-hot: an in-process `bindlock serve` daemon
   (Serve.run_socket on a Unix socket, a 2-domain executor pool, a
   64 MiB store) driven by one client thread over 2 connections. The
   client is a closed loop, like a script that waits for each reply:
   each connection keeps 4 requests in flight and sends the next one
   when an answer arrives. One operation is one request; its latency
   runs from the write of the request to the read of its answer. *)

module Executor = Rb_service.Executor
module Store = Rb_service.Store
module Job = Rb_service.Job
module Json = Rb_util.Json
module Benchmark = Rb_workload.Benchmark

let connections = 2
let depth = 4
let store_cap = 64 * 1024 * 1024
let socket_path = Filename.concat Measure.out_dir "serve.sock"

(* A daemon that answers nothing for this long is stuck. *)
let stall_s = 60.0

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable partial : string;  (** bytes after the last newline read *)
  inflight : (int * float * int) Queue.t;  (** id, send time, tag *)
}

type daemon = { executor : Executor.t; drain : bool Atomic.t; thread : Thread.t; conns : conn array }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let give_up = Measure.now () +. 10.0 in
  let rec go () =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Measure.now () < give_up ->
      Thread.delay 0.001;
      go ()
  in
  go ()

let start pool =
  Measure.ensure_out_dir ();
  let store = Store.create ~cap_bytes:store_cap () in
  let executor = Executor.create ~store ~pool () in
  let drain = Atomic.make false in
  let thread =
    Thread.create
      (fun () -> ignore (Rb_service.Serve.run_socket ~executor ~drain ~path:socket_path ()))
      ()
  in
  let conns =
    Array.init connections (fun _ ->
        { fd = connect socket_path; chunk = Bytes.create 65536; partial = "";
          inflight = Queue.create () })
  in
  { executor; drain; thread; conns }

(* Closing the connections ends their handlers; the drain flag ends the
   accept loop. *)
let stop d =
  Array.iter (fun c -> Unix.close c.fd) d.conns;
  Atomic.set d.drain true;
  Thread.join d.thread

let request_line ~id job =
  match Job.to_json job with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj (("schema", Json.String "rb-job/1") :: ("id", Json.Int id) :: fields))
  | _ -> invalid_arg "request_line"

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* The closed loop. [next ()] gives the next request as (id, line, tag)
   or [None] once the phase has sent its share; [answer] gets each
   response line with its request's id, tag and latency. Returns when
   every sent request is answered. *)
let drive d ~next ~answer =
  let exhausted = ref false in
  let fill c =
    while (not !exhausted) && Queue.length c.inflight < depth do
      match next () with
      | None -> exhausted := true
      | Some (id, line, tag) ->
        let sent = Measure.now () in
        write_all c.fd (line ^ "\n") 0;
        Queue.push (id, sent, tag) c.inflight
    done
  in
  let receive c =
    let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
    if n = 0 then failwith "serve daemon closed a connection";
    let received = Measure.now () in
    let lines = String.split_on_char '\n' (c.partial ^ Bytes.sub_string c.chunk 0 n) in
    let rec take = function
      | [] -> ()
      | [ rest ] -> c.partial <- rest
      | line :: rest ->
        let id, sent, tag = Queue.pop c.inflight in
        answer ~id ~tag ~latency:(received -. sent) ~sent ~received line;
        take rest
    in
    take lines
  in
  Array.iter fill d.conns;
  let waiting () =
    Array.to_list d.conns |> List.filter (fun c -> not (Queue.is_empty c.inflight))
  in
  let rec loop () =
    match waiting () with
    | [] -> ()
    | busy ->
      (match Unix.select (List.map (fun c -> c.fd) busy) [] [] stall_s with
      | [], _, _ -> failwith "serve daemon stalled"
      | ready, _, _ ->
        List.iter (fun c -> if List.mem c.fd ready then receive c) busy
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      Array.iter fill d.conns;
      loop ()
  in
  loop ()

(* The feasibility facts the bind palette needs: FUs per kind under
   each registry benchmark's default schedule. *)
let fus_table () =
  let table =
    List.map
      (fun b ->
        (b.Benchmark.name, Rb_hls.Allocation.for_schedule (Benchmark.schedule b)))
      (Benchmark.all ())
  in
  fun name kind -> List.length (Rb_hls.Allocation.fu_ids (List.assoc name table) kind)

(* Traced runs: the daemon decodes, digests, executes and renders inside
   library code, so the probe replays every 8th request of the last
   phase through the same public calls, each under its own span. *)
let probe_every = 8

let probe_requests ~executor lines =
  List.iter
    (fun (id, line) ->
      let decoded =
        Spans.with_span ~req:id "service.decode" (fun _ ->
            Result.bind
              (Result.map_error (Rb_service.Error.make Rb_service.Error.Invalid_request)
                 (Json.of_string line))
              Job.of_json)
      in
      match decoded with
      | Error _ -> ()
      | Ok job -> (
        ignore (Spans.with_span ~req:id "service.digest" (fun _ -> Job.digest job));
        match Spans.with_span ~req:id "service.execute" (fun _ -> Executor.run executor job) with
        | Ok o ->
          ignore
            (Spans.with_span ~req:id "service.render" (fun _ ->
                 Json.to_string (Rb_service.Render.result_to_json o)))
        | Error _ -> ()))
    lines

type phase_state = {
  lat : Measure.Samples.t;
  mutable failed : int;
  mutable sent : int;
  mutable probed : (int * string) list;
}

(* One phase of [n] requests of either workload: [make i] is the i-th
   request of the stream as (line, tag), [check] judges an "ok"
   answer. Returns the phase and, in a traced run, every 8th request
   line for the probe. *)
let phase d ~cursor ~make ~check n =
  let st = { lat = Measure.Samples.create (); failed = 0; sent = 0; probed = [] } in
  let t0 = Measure.now () in
  let next () =
    if st.sent >= n then None
    else begin
      let i = !cursor in
      incr cursor;
      st.sent <- st.sent + 1;
      let line, tag = make i in
      if Spans.enabled () && i mod probe_every = 0 then st.probed <- (i, line) :: st.probed;
      Some (i, line, tag)
    end
  in
  let answer ~id ~tag ~latency ~sent ~received line =
    Spans.record ~req:id "request" ~start:sent ~stop:received;
    match Checks.response_payload ~id line with
    | Some payload when check ~id ~tag ~line payload -> Measure.Samples.add st.lat latency
    | _ -> st.failed <- st.failed + 1
  in
  drive d ~next ~answer;
  ( {
      Measure.completed = Measure.Samples.length st.lat;
      latencies = Measure.Samples.to_array st.lat;
      failed = st.failed;
      elapsed = Measure.now () -. t0;
    },
    List.rev st.probed )

let store_bytes d = float_of_int (Store.stats (Executor.store d.executor)).Store.bytes

(* ------------------------------------------------------------ serve-cold *)

(* Every request carries a fresh seed, so every store lookup misses. One
   request in 50 is re-run after the run on a fresh executor and its
   answer must match byte for byte. *)
let rerun_every = 50

let setup_cold pool ~seed =
  let palette = Streams.bind_palette ~fus_of:(fus_table ()) in
  let d = start pool in
  let cursor = ref 0 in
  let reruns = ref [] in
  let last_probed = ref [] in
  let make i = (request_line ~id:i (Streams.serve_request ~seed ~palette i), 0) in
  let check ~id ~tag:_ ~line _ =
    if id mod rerun_every = 0 then reruns := (id, line) :: !reruns;
    true
  in
  let run n =
    let p, probed = phase d ~cursor ~make ~check n in
    last_probed := probed;
    p
  in
  let verify () =
    let fresh = Executor.create ~store:(Store.create ~cap_bytes:store_cap ()) ~pool () in
    List.fold_left
      (fun n (id, line) ->
        match Executor.run fresh (Streams.serve_request ~seed ~palette id) with
        | Ok o when Checks.expected_line ~id o = line -> n
        | _ -> n + 1)
      0 !reruns
  in
  let probe () =
    let executor = Executor.create ~store:(Store.create ~cap_bytes:store_cap ()) ~pool () in
    probe_requests ~executor !last_probed
  in
  {
    Measure.run;
    verify;
    probe;
    extras = (fun () -> [ ("store.bytes", store_bytes d) ]);
    teardown = (fun () -> stop d);
  }

(* ------------------------------------------------------------- serve-hot *)

(* Requests replay a 64-job palette. Set-up sends each palette job once
   to fill the store; every later answer must repeat the first answer
   to the same job byte for byte. *)
let setup_hot pool ~seed =
  let palette = Streams.hot_palette ~seed ~palette:(Streams.bind_palette ~fus_of:(fus_table ())) in
  let d = start pool in
  let first = Array.make (Array.length palette) None in
  let warm_failed = ref 0 in
  let cursor = ref 0 in
  let line_of id k = request_line ~id palette.(k) in
  ignore
    (phase d ~cursor
       ~make:(fun i -> (line_of i i, i))
       ~check:(fun ~id:_ ~tag ~line:_ payload ->
         first.(tag) <- Some payload;
         true)
       (Array.length palette));
  Array.iter (fun a -> if a = None then incr warm_failed) first;
  let last_probed = ref [] in
  let make i =
    let k = Streams.hot_index ~seed i in
    (line_of i k, k)
  in
  let check ~id:_ ~tag ~line:_ payload = first.(tag) = Some payload in
  let run n =
    let p, probed = phase d ~cursor ~make ~check n in
    last_probed := probed;
    p
  in
  {
    Measure.run;
    verify = (fun () -> !warm_failed);
    probe = (fun () -> probe_requests ~executor:d.executor !last_probed);
    extras = (fun () -> [ ("store.bytes", store_bytes d) ]);
    teardown = (fun () -> stop d);
  }

let cold = { Measure.name = "serve-cold"; op_label = "request"; unit_label = "requests";
    units_per_s = 700.0; setup = setup_cold }
let hot = { Measure.name = "serve-hot"; op_label = "request"; unit_label = "requests";
    units_per_s = 55000.0; setup = setup_hot }
