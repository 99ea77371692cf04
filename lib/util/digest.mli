(** Content-address digests for the job-outcome store.

    The service layer keys every cached job outcome by a digest of the
    job's {e canonicalized} JSON form, so two requests that mean the same thing — regardless of JSON field
    order — address the same cache slot. The digest is MD5 (via
    [Stdlib.Digest]) rendered as lowercase hex: 32 characters, cheap,
    and collision-resistant far beyond the cache sizes involved; this
    is an addressing scheme, not a security boundary. *)

val string : string -> string
(** MD5 of the raw bytes, as lowercase hex. *)

val canonical : Json.t -> Json.t
(** [canonical v] sorts object fields by name at every level
    (stable sort, so duplicate names keep document order) and keeps
    lists in order. Scalars are untouched — note that [Int 1] and [Float 1.]
    render differently and therefore digest differently. *)

val json : Json.t -> string
(** [string (Json.to_string (canonical v))] — the digest of a JSON
    document independent of its field order. *)
