(** Mutable binary min-heap of [int] payloads with user-supplied
    priorities.

    The discrete-event simulator stores pending events here keyed by virtual
    time, the payload being a handle into its event pool
    ([Mdst_sim.Pool]); ties are broken by insertion order so that
    executions are deterministic for a fixed seed.  The payload is a plain
    [int] on purpose: a polymorphic heap pays a write barrier per moved
    slot, and holding the same handles it measured 10% slower end to end
    (DESIGN.md §9). *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> prio:float -> int -> unit
(** Amortised O(log n).  The heap itself allocates nothing once grown;
    the caller boxes [prio] (two minor words) unless it already holds it
    boxed. *)

val push_at : t -> prio:float -> seq:int -> int -> unit
(** Like {!push} but with a caller-supplied tie-break sequence instead of
    the heap's own insertion counter: among equal priorities, smaller [seq]
    pops first.  The sharded parallel engine keys events by a global
    [(time, shard, seq)] order, where the tie-break is a property of the
    {e event}, not of when this heap happened to learn about it (a remote
    event is pushed at mailbox-drain time, which is racy).  Do not mix with
    {!push} on the same heap unless the two sequence spaces are disjoint. *)

val top : t -> int
(** Payload of the minimum entry, without removing it.
    @raise Invalid_argument on an empty heap. *)

val top_seq : t -> int
(** Tie-break sequence of the minimum entry ({!push_at}'s [seq], or the
    insertion counter for {!push}).
    @raise Invalid_argument on an empty heap. *)

val top_prio : t -> float
(** Priority of the minimum entry without removing it.  The priorities
    live in an unboxed float array, but the returned float is boxed (two
    minor words) whenever the call is not inlined — always, across
    libraries built with [-opaque] (dune's dev profile).  Hot loops that
    keep the time elsewhere (the engines' event pool) read it there.
    @raise Invalid_argument on an empty heap. *)

val drop_min : t -> int
(** Removes the minimum entry and returns its payload — the form of
    {!pop} that allocates nothing (no option, no tuple).
    @raise Invalid_argument on an empty heap. *)

val pop : t -> (float * int) option
(** Removes and returns the entry with the smallest priority (FIFO among
    equal priorities). O(log n). *)

val peek : t -> (float * int) option

val clear : t -> unit

val to_list : t -> (float * int) list
(** Snapshot in heap-array order; used by tests and fault injection. *)

val filter : t -> (float -> int -> bool) -> int
(** [filter t keep] removes every entry for which [keep prio value] is
    false and returns how many were removed.  [keep] is called exactly once
    per entry, in heap-array order.  The relative order of surviving
    equal-priority entries is preserved (fault injection purges channels
    without perturbing FIFO determinism).  O(n). *)
