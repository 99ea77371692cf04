(** Kept for one caller; see {!ensure_registered}. *)

val ensure_registered : unit -> unit
(** A no-op: there is one assignment engine ({!Matcher}) and nothing
    to register. It remains only because the end-to-end benchmark
    driver ([perfbench/workloads.ml]) calls it, and goes at the next
    change to that driver. *)
