(** Per-design static-vulnerability reports — the payload behind
    [bindlock analyze].

    One {!analyze} call runs the whole battery: constant propagation,
    signal probabilities, key-dependence cones and the two oracle-less
    attacks, folded into a single record that renders as text or
    {!Rb_util.Json} (schema ["rb-analyze/3"]). *)

type t = {
  subject : string;
  n_inputs : int;
  n_keys : int;
  n_gates : int;
  n_outputs : int;
  inferable : Attacks.inference list;
      (** key bits the constant-propagation attack recovers *)
  skewed : (int * float) list;
      (** key gates with output probability outside [0.05, 0.95] *)
  dead_gates : int;  (** gates outside every output cone *)
  observability : Keydep.summary list;  (** one per key bit *)
  gates_removed : int;  (** by the removal attack *)
  static_resilience : float;
      (** [1 - inferable/n_keys]; [1.0] for keyless designs *)
}

val analyze : subject:string -> Rb_netlist.Netlist.t -> t

val to_json : t -> Rb_util.Json.t
val pp : Format.formatter -> t -> unit
