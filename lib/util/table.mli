(** Plain-text rendering of experiment tables and log-scale bars.

    The benchmark harness regenerates the paper's figures as text: each
    figure becomes a table of series values plus an ASCII log-scale bar
    chart so the "shape" (who wins, by what factor) is visible in a
    terminal. *)

type t
(** A table under construction. *)

val create : title:string -> columns:string list -> t
(** [create ~title ~columns] starts a table whose first column is a row
    label followed by [columns] data headers. *)

val add_text_row : t -> label:string -> cells:string list -> unit
(** Append a row of preformatted cells (e.g. "12.3x" or "capped"); the
    cell count must match the column count. *)

val render : t -> string
(** Render with aligned columns and a title rule. *)

val log_bar : float -> string
(** [log_bar v] is an ASCII bar whose length is proportional to
    [log10 (max v 1.0)], scaled so 1000x fills 30 characters.
    Mirrors the log-scale y-axis of the paper's Figs. 4 and 5. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
