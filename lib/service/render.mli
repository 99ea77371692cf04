(** Renders {!Outcome.t} values for the two CLI surfaces.

    The text renderer reproduces the pre-service subcommand output
    byte-for-byte (the golden tests under [test/golden/] hold it to
    that); the JSON renderer produces the same documents the old
    [--format json] paths built, pretty-printed with
    {!Rb_util.Json.to_string_pretty}.

    Attack durations are the one rendering input that is not part of
    the outcome: wall time is measured by the caller around
    {!Executor.run} (a cache hit takes microseconds; the outcome must
    not embed the first run's timing) and passed in as
    [?attack_wall_s]. *)

val result_to_json : Outcome.t -> Rb_util.Json.t
(** The machine form. Schemas match the historical surfaces:
    [list]'s [{"benchmarks": .., "binders": ..}], [bind]'s config
    report, lint's report array, analyze's ["rb-analyze/3"]; attack
    gains a structured form (it had no JSON surface before); text
    payloads (show, custom, exports) wrap as [{"text": ..}]. *)

val to_text : ?attack_wall_s:float -> Outcome.t -> string
(** The human form, exactly as the pre-service subcommands printed it
    (including trailing newlines); export payloads are returned
    verbatim. [attack_wall_s] (default [0.]) fills the ["(%.2fs)"]
    field of attack outcome lines. *)

val print : ?attack_wall_s:float -> [ `Text | `Json ] -> Outcome.t -> unit
(** Write to stdout: [`Text] is [to_text] verbatim, [`Json] is the
    pretty JSON document plus a newline. *)
