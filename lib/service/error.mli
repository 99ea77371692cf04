(** The structured error type of the job API.

    Every failure a job can produce — malformed request, unknown
    benchmark, infeasible locking parameters, tripped resource budget,
    or an unexpected exception — becomes one of these records instead
    of a [Printf] + [exit]. Thin clients render [message] exactly
    where the pre-service CLI printed its error strings, so the CLI
    surface is unchanged; the serve daemon serializes the whole record
    into the [rb-result/1] error member. *)

type code =
  | Invalid_request  (** malformed JSON, bad field type, out-of-bounds parameter *)
  | Unknown_target  (** a benchmark or binder name that names nothing *)
  | Infeasible  (** well-formed, but the design cannot satisfy it *)
  | Limit  (** a resource budget or deadline stopped the job *)
  | Overloaded  (** shed by admission control: the daemon is at its in-flight cap *)
  | Internal  (** unexpected exception; the message is diagnostic only *)

type t = { code : code; message : string }

val make : code -> string -> t

val code_label : code -> string
(** Stable wire strings: ["invalid-request"], ["unknown-target"],
    ["infeasible"], ["limit"], ["overloaded"], ["internal"]. *)

val to_json : t -> Rb_util.Json.t
(** [{"code": <label>, "message": <message>}]. *)
