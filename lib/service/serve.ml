module Json = Rb_util.Json
module Limits = Rb_util.Limits
module Metrics = Rb_util.Metrics
module Pool = Rb_util.Pool

type stop = Eof | Cancelled | Drained

let default_max_line = 16 * 1024 * 1024
let serve_rejected = Metrics.counter ~scope:"serve" "rejected"

(* --------------------------------------------------------- admission *)

module Admission = struct
  type t = { cap : int; inflight : int Atomic.t }

  let create cap =
    if cap < 1 then invalid_arg "Serve.Admission.create: cap must be >= 1";
    { cap; inflight = Atomic.make 0 }

  (* Compare-and-set rather than fetch-and-add-then-rollback: N racing
     acquires must not transiently overshoot the counter, or a request
     could be shed as overloaded while in-flight slots are actually
     free. A CAS retry only rejects when the observed count genuinely
     reached the cap. *)
  let rec try_acquire t =
    let n = Atomic.get t.inflight in
    if n >= t.cap then false
    else if Atomic.compare_and_set t.inflight n (n + 1) then true
    else try_acquire t

  let release t = ignore (Atomic.fetch_and_add t.inflight (-1))
  let in_flight t = Atomic.get t.inflight
end

(* ------------------------------------------------------------ protocol *)

let error_response ~id e =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.String "rb-result/1"); ("id", id); ("error", Error.to_json e) ])

(* Best-effort id echo for responses produced without running the job
   (overload shedding): worth one cheap parse so a well-formed client
   can still correlate the rejection. *)
let request_id line =
  match Json.of_string line with
  | Ok v -> Option.value ~default:Json.Null (Json.member "id" v)
  | Error _ -> Json.Null

let overloaded_response line =
  error_response ~id:(request_id line)
    (Error.make Error.Overloaded "in-flight cap reached; retry later")

let oversized_response max_line =
  error_response ~id:Json.Null
    (Error.make Error.Invalid_request
       (Printf.sprintf "request line exceeds %d bytes" max_line))

(* [deadline_ms] lives on the envelope, not the job: {!Job.of_json}
   ignores it, so the job digest — and therefore the cache key — is
   independent of how patient the client is. *)
let deadline_of v =
  match Json.member "deadline_ms" v with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int ms) when ms > 0 ->
    Ok (Some (Metrics.now_s () +. (float_of_int ms /. 1000.)))
  | Some (Json.Float ms) when ms > 0. -> Ok (Some (Metrics.now_s () +. (ms /. 1000.)))
  | Some _ ->
    Error
      (Error.make Error.Invalid_request
         "\"deadline_ms\" must be a positive number of milliseconds")

let respond executor line =
  let id, result =
    match Json.of_string line with
    | Error msg ->
      (Json.Null, Error (Error.make Error.Invalid_request ("parse error: " ^ msg)))
    | Ok v ->
      let id = Option.value ~default:Json.Null (Json.member "id" v) in
      let result =
        match Json.member "schema" v with
        | Some (Json.String "rb-job/1") -> (
          match deadline_of v with
          | Error e -> Error e
          | Ok deadline_s -> (
            match Job.of_json v with
            | Ok job ->
              Result.map Render.result_to_json (Executor.run ?deadline_s executor job)
            | Error e -> Error e))
        | Some (Json.String s) ->
          Error (Error.make Error.Invalid_request (Printf.sprintf "unsupported schema %S" s))
        | _ ->
          Error (Error.make Error.Invalid_request "missing required field \"schema\"")
      in
      (id, result)
  in
  match result with
  | Ok ok ->
    Json.to_string
      (Json.Obj [ ("schema", Json.String "rb-result/1"); ("id", id); ("ok", ok) ])
  | Error e -> error_response ~id e

(* -------------------------------------------------------- line reading *)

(* Raw-fd reading (no stdlib buffering — buffered bytes would be
   invisible to the select probes below) into one growable byte region:
   valid bytes live at [buf.[start .. start+len-1]], appends compact or
   double the region, and [scanned] remembers the newline-free prefix
   so the splitter never rescans bytes. Consuming a line advances
   [start] without copying the remainder, which keeps a connection that
   streams many lines linear in total bytes instead of quadratic. *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
  mutable scanned : int;
  mutable skipping : bool;
      (* an oversized line was answered; discard until its newline *)
  max_line : int;
  mutable eof : bool;
}

type flags = { cancel : bool Atomic.t; drain : bool Atomic.t }

let make_reader ~max_line fd =
  {
    fd;
    chunk = Bytes.create 65536;
    buf = Bytes.create 65536;
    start = 0;
    len = 0;
    scanned = 0;
    skipping = false;
    max_line = max 1 max_line;
    eof = false;
  }

let append r src n =
  let cap = Bytes.length r.buf in
  if r.start + r.len + n > cap then
    if r.len + n <= cap then begin
      Bytes.blit r.buf r.start r.buf 0 r.len;
      r.start <- 0
    end
    else begin
      let cap' = ref (max cap 1) in
      while !cap' < r.len + n do
        cap' := !cap' * 2
      done;
      let buf' = Bytes.create !cap' in
      Bytes.blit r.buf r.start buf' 0 r.len;
      r.buf <- buf';
      r.start <- 0
    end;
  Bytes.blit src 0 r.buf (r.start + r.len) n;
  r.len <- r.len + n

let consume_through r i =
  let consumed = i - r.start + 1 in
  r.start <- i + 1;
  r.len <- r.len - consumed;
  r.scanned <- 0

let discard_all r =
  r.start <- 0;
  r.len <- 0;
  r.scanned <- 0

(* One buffered line, if a complete one is available. [`Oversized] is
   returned exactly once per too-long line — when its newline arrives
   beyond the cap, or as soon as [max_line] newline-free bytes have
   accumulated (the buffered prefix is dropped immediately and the
   rest of the line is discarded as it streams in, so a hostile
   endless line costs bounded memory). *)
let rec take_line r =
  if r.len = 0 then `Nothing
  else begin
    let limit = r.start + r.len in
    let rec find i =
      if i >= limit then None
      else if Bytes.get r.buf i = '\n' then Some i
      else find (i + 1)
    in
    match find (r.start + r.scanned) with
    | Some i when r.skipping ->
      consume_through r i;
      r.skipping <- false;
      take_line r
    | Some i when i - r.start > r.max_line ->
      consume_through r i;
      `Oversized
    | Some i ->
      let line = Bytes.sub_string r.buf r.start (i - r.start) in
      consume_through r i;
      `Line line
    | None ->
      r.scanned <- r.len;
      if r.skipping then begin
        discard_all r;
        `Nothing
      end
      else if r.len > r.max_line then begin
        discard_all r;
        r.skipping <- true;
        `Oversized
      end
      else `Nothing
  end

(* Blocking refills poll with a short select timeout instead of
   parking in [read]: signal handlers only flip atomics, so the read
   loop itself has to notice the cancel (SIGINT) and drain (SIGTERM)
   flags — from whichever thread is serving the connection. *)
let rec refill r ~block flags =
  if Limits.cancelled flags.cancel then `Stop Cancelled
  else if block && Atomic.get flags.drain then `Stop Drained
  else begin
    let ready =
      match Unix.select [ r.fd ] [] [] (if block then 0.25 else 0.0) with
      | [], _, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if not ready then if block then refill r ~block flags else `Would_block
    else
      match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 ->
        r.eof <- true;
        `Data
      | n ->
        append r r.chunk n;
        `Data
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r ~block flags
  end

let rec next_line r ~block flags =
  match take_line r with
  | `Line line -> `Line line
  | `Oversized -> `Oversized
  | `Nothing ->
    if r.eof then
      if r.len = 0 || r.skipping then `Eof
      else begin
        (* final unterminated line *)
        let line = Bytes.sub_string r.buf r.start r.len in
        discard_all r;
        `Line line
      end
    else (
      match refill r ~block flags with
      | `Data -> next_line r ~block flags
      | `Would_block -> `Empty
      | `Stop s -> `Stop s)

(* Greedy batch: block for the first line, then take whatever is
   already buffered or readable without blocking, up to the cap. A
   stop noticed mid-gather is carried out of the batch so the gathered
   lines are still answered before the loop winds down. *)
let gather r flags ~max_batch =
  let stop = ref None in
  let rec go acc n =
    if n >= max_batch then List.rev acc
    else
      match next_line r ~block:(acc = []) flags with
      | `Line l -> go (`Line l :: acc) (n + 1)
      | `Oversized -> go (`Oversized :: acc) (n + 1)
      | `Empty | `Eof -> List.rev acc
      | `Stop s ->
        stop := Some s;
        List.rev acc
  in
  let items = go [] 0 in
  (items, !stop)

(* ------------------------------------------------------------ the loop *)

let run ~executor ?(cancel = Limits.new_cancel ()) ?(drain = Atomic.make false)
    ?batch_size ?(max_line = default_max_line) ?admission ~input ~output () =
  let pool = Executor.pool executor in
  let max_batch =
    match batch_size with Some n -> max 1 n | None -> max 1 (4 * Pool.jobs pool)
  in
  let r = make_reader ~max_line input in
  let flags = { cancel; drain } in
  let rec loop () =
    if Limits.cancelled cancel then Cancelled
    else begin
      let items, stop = gather r flags ~max_batch in
      let items =
        List.filter
          (function `Line l -> String.trim l <> "" | `Oversized -> true)
          items
      in
      match items with
      | [] -> (
        match stop with
        | Some s -> s
        | None ->
          if r.eof && r.len = 0 then Eof
          else if Atomic.get drain then Drained
          else loop ())
      | items ->
        (* Admission decisions are taken here, sequentially, before the
           batch fans out: the order in which lines claim in-flight
           slots is the order they arrived on this connection, not a
           pool scheduling accident. *)
        let decided =
          List.map
            (function
              | `Oversized -> `Answer (oversized_response max_line)
              | `Line l -> (
                match admission with
                | None -> `Run l
                | Some adm ->
                  if Admission.try_acquire adm then `Admitted (l, adm)
                  else begin
                    Metrics.incr serve_rejected;
                    `Answer (overloaded_response l)
                  end))
            items
        in
        let responses =
          Pool.map_list pool
            ~f:(fun decision ->
              match decision with
              | `Answer s -> s
              | `Run l -> respond executor l
              | `Admitted (l, adm) ->
                Fun.protect
                  ~finally:(fun () -> Admission.release adm)
                  (fun () -> respond executor l))
            decided
        in
        List.iter
          (fun s ->
            output_string output s;
            output_char output '\n')
          responses;
        flush output;
        (match stop with Some s -> s | None -> loop ())
    end
  in
  loop ()

let run_socket ~executor ?(cancel = Limits.new_cancel ()) ?(drain = Atomic.make false)
    ?batch_size ?max_line ?max_inflight ~path () =
  let admission = Option.map Admission.create max_inflight in
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  let active = Atomic.make 0 in
  (* One handler thread per accepted connection. Everything a handler
     can raise — a client hanging up mid-write, a bad descriptor — is
     caught inside the thread, so one connection's death never reaches
     the accept loop or a sibling connection. *)
  let spawn conn =
    ignore (Atomic.fetch_and_add active 1);
    let handler () =
      Fun.protect
        ~finally:(fun () -> ignore (Atomic.fetch_and_add active (-1)))
        (fun () ->
          let out = Unix.out_channel_of_descr conn in
          (try
             ignore
               (run ~executor ~cancel ~drain ?batch_size ?max_line ?admission
                  ~input:conn ~output:out ())
           with Sys_error _ | Unix.Unix_error _ -> ());
          (try flush out with Sys_error _ -> ());
          try Unix.close conn with Unix.Unix_error _ -> ())
    in
    match Thread.create handler () with
    | (_ : Thread.t) -> ()
    | exception _ ->
      (* pthread_create can fail (EAGAIN) under exactly the resource
         pressure this daemon is hardened against. Shed the connection
         instead of letting the exception kill the accept loop: roll
         back the active count the handler would have released, close
         the fd it would have closed, and back off like the EMFILE
         path so in-flight handlers get a chance to finish. *)
      ignore (Atomic.fetch_and_add active (-1));
      (try Unix.close conn with Unix.Unix_error _ -> ());
      Thread.delay 0.05
  in
  let rec accept_loop () =
    if Limits.cancelled cancel then Cancelled
    else if Atomic.get drain then Drained
    else
      match Unix.select [ sock ] [] [] 0.25 with
      | [], _, _ -> accept_loop ()
      | _ -> (
        match Unix.accept ~cloexec:true sock with
        | conn, _ ->
          spawn conn;
          accept_loop ()
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          (* the client gave up between connect and accept *)
          accept_loop ()
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          (* out of descriptors: back off, let handlers finish and
             release theirs, keep serving *)
          Thread.delay 0.05;
          accept_loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  let finally () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  let stop = Fun.protect ~finally accept_loop in
  (* Drain: handlers finish their batches and flush. Cancel: handlers
     notice the flag at their next poll and bail. Either way, wait for
     them before returning so responses are on the wire. *)
  let rec wait () =
    if Atomic.get active > 0 then begin
      Thread.delay 0.02;
      wait ()
    end
  in
  wait ();
  stop
