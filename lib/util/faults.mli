(** Deterministic fault injection for robustness testing.

    Production code sprinkles {!inject} calls at its fault {e sites}
    (a solver about to search, a daemon connection about to be
    served); the harness decides — purely from the configured seed,
    the site name and the caller-supplied key — whether that site
    throws. The decision is a hash of [(seed, site, key)], so it is
    independent of execution order, worker count and wall clock: the
    same configuration fails the same logical tasks on every run,
    which is what lets a test assert exact recovery behaviour.

    Injection is {e off by default} and follows the {!Metrics} sink
    discipline: every {!inject} first reads one [Atomic.t] and returns
    immediately when no configuration is installed, so instrumented
    paths cost a predictable branch in production.

    Known sites (grep for [Faults.inject] to refresh this list):
    - ["sat/budget"], keyed by per-solver solve ordinal — makes a
      budgeted [Solver.solve] report [Unknown] immediately;
    - ["serve/conn"], keyed by connection ordinal — kills one socket
      connection's handler thread at accept time; the daemon keeps
      serving every other connection;
    - ["store/evict"], keyed by the store's access tick — fails one
      eviction pass; the store stays over cap until the next insert
      instead of failing the lookup.

    Configuration can come from the environment (read once at module
    initialization), which is how a fault run enables the harness under
    an unmodified binary:
    [RB_FAULT_SEED] (int, required to enable), [RB_FAULT_RATE]
    (per-mille, default 100), [RB_FAULT_SITES] (comma-separated site
    filter, default all sites).

    When {!Metrics} collection is enabled, fired injections count under
    ["faults/injected"]. *)

exception Injected of string
(** Raised by a firing {!inject}; the payload is ["site:key"]. *)

type config = {
  seed : int;
  rate_per_mille : int;  (** firing probability out of 1000, clamped to [0,1000] *)
  sites : string list;  (** sites allowed to fire; [[]] means every site *)
}

val configure : config option -> unit
(** Install or clear the active configuration. *)

val config : unit -> config option

val enabled : unit -> bool

val fire : site:string -> key:string -> bool
(** Would an {!inject} at this site and key throw? Pure given the
    active configuration. [false] when disabled. *)

val inject : site:string -> key:string -> unit
(** Raise {!Injected} iff {!fire} says so (and count it). The no-op
    path is one atomic read. *)

val with_config : config option -> (unit -> 'a) -> 'a
(** Run the thunk under a temporary configuration, restoring the
    previous one on exit (including on exceptions). For tests. *)
