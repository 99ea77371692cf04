(** The paper's four binders behind one closed variant.

    - [Area]: the area-aware baseline [20] (minimize registers and
      transfers);
    - [Power]: the power-aware baseline [19] (minimize input
      switching under [input.profile]);
    - [Obf]: obfuscation-aware binding (Sec. IV) for the fixed
      locking configuration in [input.config];
    - [Codesign]: the P-time co-design heuristic (Sec. V). It
      re-derives the search spec (locked FUs, per-FU budget) from the
      shape of [input.config], searches [input.candidates], and
      returns both the chosen configuration and its binding.

    The CLI, the bench harness and the service executor select a
    binder by {!name}; {!bind} is the one entry point that runs it. *)

(** Everything any binder may consume. Baseline binders ignore the
    locking-related fields. *)
type input = {
  schedule : Rb_sched.Schedule.t;
  allocation : Rb_hls.Allocation.t;
  profile : Rb_hls.Profile.t;  (** workload profile (power-aware binding) *)
  k : Rb_sim.Kmatrix.t;  (** K matrix (security-aware binding) *)
  config : Rb_locking.Config.t;  (** locking configuration to bind under *)
  candidates : Rb_dfg.Minterm.t array;
      (** candidate locked-input list C (co-design) *)
}

(** A binding plus the locking configuration it was built for. Binders
    with a fixed a-priori lock echo [input.config]; co-design returns
    the configuration it chose. *)
type output = { binding : Rb_hls.Binding.t; config : Rb_locking.Config.t }

type t = Area | Codesign | Obf | Power

val all : t list
(** Every binder, in {!name} order. *)

val name : t -> string
(** ["area"], ["codesign"], ["obf"], ["power"]. *)

val of_name : string -> t option

val description : t -> string
(** One line for [--help] and listings. *)

val bind : t -> input -> output
(** Run the binder. Each call bumps the deterministic counter
    ["binder/<name>_binds"] and records wall-clock in the timer
    ["binder/<name>_bind"] ({!Rb_util.Metrics}). [Codesign] raises
    [Invalid_argument] when [input.config] locks no FU. *)

val ensure_registered : unit -> unit
(** A no-op: the binder set is closed and nothing registers. It
    remains only because the end-to-end benchmark driver
    ([perfbench/workloads.ml]) calls it, and goes at the next change
    to that driver. *)
