(** Job-outcome cache: single-flight computation and optional
    byte-cost-accounted LRU eviction.

    The executor keys each successful {!Outcome.t} by its job's digest
    ({!Job.digest}), so a workload that repeats a job (the same
    benchmark, seed, scheme, binder and budget) pays for the pipeline
    once. Only whole job outcomes are cached: the intermediate
    products of a job (contexts, locked netlists, reports) are
    rebuilt by every job that needs them.

    Lookups are {e single-flight}: when several pool workers ask for
    the same missing key concurrently, exactly one computes while the
    rest block on a condition variable and receive the finished
    outcome through a result box shared with the computing worker.
    That discipline is what keeps the [cache/hits] and [cache/misses]
    counters deterministic across [--jobs] — each distinct key
    accounts for exactly one miss no matter how many workers race for
    it. A computation that raises removes its pending entry (waiters
    retry the compute themselves, each counting its own miss), so
    failures are never cached.

    With [cap_bytes] set the store is {e bounded}: each resident
    outcome is priced by its reachable words, and inserts that push
    the total over the cap evict least-recently-used Ready entries
    until it fits again ([cache/evictions] counter, [store/bytes]
    gauge). Eviction composes with single-flight: a waiter blocked on
    a pending computation receives the outcome through the shared box
    even if the cache slot is evicted before the waiter wakes, and
    in-flight (Pending) entries are never eviction victims. Without a
    cap the store is unbounded and in-memory; it lives as long as its
    executor. *)

type t

val create : ?cap_bytes:int -> unit -> t
(** [cap_bytes] bounds the resident outcome bytes; omitted means
    unbounded. [Invalid_argument] when [cap_bytes < 1]. *)

val cost_of : Outcome.t -> int
(** The byte cost eviction accounts for one outcome: its reachable
    words times the word size. Each outcome is priced independently,
    so structure shared between resident outcomes is counted once
    {e per outcome} that reaches it — [stats.bytes] (and the
    [store/bytes] gauge) is a conservative {e upper} bound on real
    residency, and a tight [cap_bytes] may evict earlier than true
    memory use requires. Size [--store-cap] against this accounting,
    not against heap profiles. Exposed for tests and capacity
    planning. *)

val find_or_compute : t -> key:string -> (unit -> Outcome.t) -> Outcome.t
(** Return the cached outcome for [key], or run the thunk (at most
    one concurrent run per key) and cache its result, evicting LRU
    entries if the insert overflows the cap. Exceptions from the
    thunk propagate to the computing caller and leave the key absent;
    concurrent waiters then recompute. Counts one [cache/hits] per
    ready lookup and one [cache/misses] per compute attempt, both on
    the process-wide {!Rb_util.Metrics} registry and on the store's
    own {!stats}. The ["store/evict"] fault site makes an eviction
    pass fail benignly: the store stays over cap until the next
    insert instead of surfacing the fault. *)

type stats = { hits : int; misses : int; evictions : int; bytes : int }

val stats : t -> stats
(** This store's own tallies (unlike the Metrics counters, unaffected
    by other stores in the process). [bytes] is the current resident
    cost, [evictions] the total entries dropped by the cap. *)

val size : t -> int
(** Number of ready entries. *)
