(** Content-address digests for the job-outcome store.

    The service layer keys every cached job outcome by the digest of
    the job's JSON encoding ({!Rb_service.Job.digest}). The digest is
    MD5 (via [Stdlib.Digest]) rendered as lowercase hex: 32
    characters, cheap, and collision-resistant far beyond the cache
    sizes involved; this is an addressing scheme, not a security
    boundary. *)

val string : string -> string
(** MD5 of the raw bytes, as lowercase hex. *)
