(** The NDJSON job daemon behind [bindlock serve].

    One request per line on the way in, one response per line on the
    way out. Requests are [rb-job/1] envelopes — a {!Job} encoding
    plus [{"schema": "rb-job/1", "id": .., "deadline_ms": ..}] — and
    every line gets exactly one [rb-result/1] answer with the
    request's [id] echoed back and either an ["ok"] member (the
    {!Render.result_to_json} form of the outcome) or an ["error"]
    member ({!Error.to_json}). Malformed lines (bad JSON, wrong
    schema, invalid job, oversized line) produce error responses,
    never a dead connection.

    The daemon is built around bounded resources and fault isolation:

    - {b Line cap.} Request lines are capped (16 MiB by default): an
      oversized line costs bounded memory — the buffered prefix is
      dropped the moment the cap is crossed and the rest is discarded
      as it streams in — and answers one [invalid-request] error.
    - {b Deadlines.} An envelope [deadline_ms] becomes an absolute
      wall deadline tightening the executor's limit for that request;
      a job that outlives it answers the structured [limit] error and
      is never cached.
    - {b Admission.} With an in-flight cap, lines that would exceed it
      are shed with an [overloaded] error (counted under
      [serve/rejected]) instead of queueing without bound. Slots are
      claimed at batch-assembly time, in arrival order.
    - {b Isolation.} Each socket connection is served by its own
      thread; a client that hangs up mid-batch, or any handler
      exception, kills only that connection. The accept loop survives
      [EMFILE]/[ECONNABORTED] and marks every descriptor close-on-exec.
    - {b Drain.} The [drain] flag (SIGTERM) stops accepting input,
      finishes and flushes in-flight batches, and returns {!Drained};
      the [cancel] flag (SIGINT) additionally interrupts in-flight
      jobs through the shared {!Rb_util.Limits} cancel flag. Blocking
      reads and accepts are short-timeout [select] polls, so flag
      flips are noticed within a quarter second from any thread.

    Input is read from a raw file descriptor with greedy batching:
    block for the first line, then drain whatever else has already
    arrived (up to a batch cap) and run the batch on the executor's
    pool. Responses are written in request order — output order equals
    input order regardless of [--jobs] — and flushed once per batch. *)

type stop =
  | Eof  (** input exhausted; every request was answered *)
  | Cancelled  (** the cancel flag was raised (SIGINT) *)
  | Drained  (** the drain flag was raised (SIGTERM); in-flight work finished *)

val default_max_line : int
(** 16 MiB. *)

(** The in-flight job cap, shared by every connection of one daemon.
    Lock-free token counting: [try_acquire] either claims a slot or
    reports the daemon overloaded. *)
module Admission : sig
  type t

  val create : int -> t
  (** [Invalid_argument] when the cap is < 1. *)

  val try_acquire : t -> bool
  val release : t -> unit
  val in_flight : t -> int
end

val respond : Executor.t -> string -> string
(** Process one request line into one response line (no trailing
    newline), honouring the envelope's [deadline_ms]. Exposed for
    tests and single-shot callers; [run] is this over batches. *)

val run :
  executor:Executor.t ->
  ?cancel:bool Atomic.t ->
  ?drain:bool Atomic.t ->
  ?batch_size:int ->
  ?max_line:int ->
  ?admission:Admission.t ->
  input:Unix.file_descr ->
  output:out_channel ->
  unit ->
  stop
(** Serve [input] until EOF, drain or cancellation. [batch_size] caps
    the greedy batch (default [4 * pool jobs]); [max_line] caps the
    request line ({!default_max_line} by default); [admission], when
    given, sheds lines over the in-flight cap. Blank lines are
    skipped. The final unterminated line, if any, is processed. *)

val run_socket :
  executor:Executor.t ->
  ?cancel:bool Atomic.t ->
  ?drain:bool Atomic.t ->
  ?batch_size:int ->
  ?max_line:int ->
  ?max_inflight:int ->
  path:string ->
  unit ->
  stop
(** Listen on a Unix-domain socket at [path] (replacing any stale
    socket file) and serve each accepted connection on its own
    thread, all sharing one executor, one admission gate
    ([max_inflight]) and the stop flags. Returns once the stop flags
    fire {e and} every handler thread has finished, so flushed
    responses are on the wire; the socket file is removed on the way
    out. *)
