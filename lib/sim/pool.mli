(** The engines' pending-event queue (DESIGN.md §9).

    Events live in parallel arrays indexed by an int {e handle} and are
    ordered by an {!Mdst_util.Heap} of handles on [(time, seq)].  A slot is
    recycled after {!release}, so enqueueing an event allocates no record;
    the only allocation on the way in is the boxed [time] of the
    out-of-line call, shared with the heap push.

    The record is exposed read-only so the engines read a popped event's
    fields (the float [time] above all) straight from the arrays, without
    a call that would box the result. *)

type 'msg t = private {
  heap : Mdst_util.Heap.t;
  mutable time : float array;  (** arrival (delivery) or firing (tick) time *)
  mutable src : int array;  (** sender; for a tick, the ticking node *)
  mutable dst : int array;  (** receiver; [-1] for a tick *)
  mutable tag : int array;  (** causal round tag (of a free slot: the free-list link) *)
  mutable msg : 'msg array;  (** payload; a placeholder for ticks and free slots *)
  mutable free : int;
  mutable fresh : int;
}

val create : capacity:int -> 'msg t
(** Pre-sized for [capacity] pending events (heap and slots); grows by
    doubling beyond that. *)

val length : 'msg t -> int
(** Pending events. *)

val is_empty : 'msg t -> bool

val tick : 'msg t -> time:float -> seq:int -> node:int -> tag:int -> unit
(** Enqueue [node]'s timer firing at [time].  Among equal times, smaller
    [seq] pops first; callers keep [seq] unique. *)

val deliver : 'msg t -> time:float -> seq:int -> src:int -> dst:int -> tag:int -> 'msg -> unit
(** Enqueue the arrival of [msg] on channel [src -> dst] at [time]. *)

val is_tick : 'msg t -> int -> bool

val top : 'msg t -> int
(** Handle of the next event, left in the queue.
    @raise Invalid_argument when empty. *)

val top_seq : 'msg t -> int
(** Tie-break [seq] of the next event. @raise Invalid_argument when empty. *)

val pop : 'msg t -> int
(** Remove the next event and return its handle.  Its fields stay
    readable until {!release}.  @raise Invalid_argument when empty. *)

val remove : 'msg t -> int -> unit
(** Remove a pending event by handle (the caller's choice, not the
    queue's order), leaving the order of the others unchanged.  Its fields
    stay readable until {!release}.  O(pending). *)

val release : 'msg t -> int -> unit
(** Return a popped or removed slot to the free stack and drop its
    message reference. *)

val purge : 'msg t -> (src:int -> dst:int -> bool) -> int
(** [purge q drop] removes and releases every pending delivery whose
    channel satisfies [drop]; ticks stay.  Returns how many were removed.
    Survivors keep their relative order. *)

val handles : 'msg t -> int list
(** Every pending handle, in heap-array order (a snapshot for observers,
    fault injection and schedule control). *)
