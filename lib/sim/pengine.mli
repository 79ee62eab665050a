(** Sharded parallel discrete-event engine (conservative PDES on OCaml 5
    domains).

    The graph is partitioned into [domains] node-shards; each shard runs
    its own event pool, PRNG draws, FIFO floors and metrics on a dedicated
    domain.  Cross-shard sends cross bounded SPSC mailboxes; shards
    synchronise through published clocks with lookahead
    [Latency.min_delay] — see the implementation header for the protocol
    and its soundness/progress arguments.

    {2 Determinism contract}

    Events are totally ordered by [(time, shard, seq)], where [(shard,
    seq)] identify the event's {e creation}, not its delivery.  Two
    guarantees follow:

    - {b bit-identical}: a fixed [(seed, domains, partition)] replays the
      exact same execution, every run;
    - {b schedule-equivalent across shard counts}: [create] replays
      {!Engine.create}'s root-stream draws and then moves latency to
      per-node streams, so the timestamped event set is independent of
      [domains].  Runs with different [domains] differ only in how
      cross-shard events at {e exactly} equal float times are ordered —
      measure-zero under the stochastic latency models — hence the
      quiescence fingerprints compared by the [pardet] check.

    The sequential {!Engine} draws post-create latencies from its root
    stream instead, so its trace differs from [domains = 1]; equivalence
    against it is established by replaying a recorded sharded schedule
    through [Engine.step_with] (see {!Parcheck} in [lib/check]).

    {2 Threading}

    Only [run] / [run_window] are parallel; every other function must be
    called between windows (the spawning domain joins all workers before
    returning, which synchronises memory). *)

module Make (A : Node.AUTOMATON) : sig
  type t

  type init =
    [ `Clean
    | `Random
    | `Custom of A.msg Node.ctx -> Mdst_util.Prng.t -> A.state ]

  val create :
    ?latency:Latency.t ->
    ?tick_period:float ->
    ?seed:int ->
    ?init:init ->
    ?record:bool ->
    ?partition:int array ->
    domains:int ->
    Mdst_graph.Graph.t ->
    t
  (** Defaults match {!Engine.create} (uniform latency, tick period 1.0,
      seed 42, clean start).  [partition] overrides the
      {!Mdst_graph.Partition.blocks} layout; [record] keeps the executed
      schedule for {!schedule}.
      @raise Invalid_argument on an empty or disconnected graph,
        [domains <= 0] or beyond {!Shard.max_shards}, an invalid
        partition, or a latency model without a positive lookahead. *)

  (** {2 Running} *)

  val run_window :
    t -> until:float -> unit
  (** Advance the whole simulation to virtual time [until]: spawns
      [domains - 1] worker domains, runs shard 0 on the caller, joins.
      No-op when [until <= now t].  A worker exception aborts the window,
      poisons the engine and re-raises on the caller. *)

  type outcome = {
    converged : bool;
    rounds : int;
    time : float;
    deliveries : int;
  }

  val run :
    t ->
    ?max_rounds:int ->
    ?window:float ->
    stop:(t -> bool) ->
    unit ->
    outcome
  (** Window-at-a-time driver: advances [window] (default 8.0) units of
      virtual time per {!run_window} and evaluates [stop] between windows
      (single-threaded, safe to inspect states).  Rounds are causal depth,
      as in {!Engine.run}. *)

  (** {2 Inspection — between windows only} *)

  val graph : t -> Mdst_graph.Graph.t
  val domains : t -> int

  val partition : t -> int array
  (** Node to shard assignment actually in use. *)

  val lookahead : t -> float

  val state : t -> int -> A.state
  val states : t -> A.state array

  val now : t -> float
  (** The horizon: virtual time the run is complete up to. *)

  val rounds : t -> int
  val deliveries : t -> int

  val events : t -> int
  (** Total executed events (ticks + deliveries) across shards. *)

  val metrics : t -> Metrics.t
  (** Merged copy of the per-shard records (allocates). *)

  val pending_events : t -> int

  val in_flight : t -> (int * int * A.msg) list
  (** Queued [(src, dst, msg)] sorted by arrival time — same shape as
      {!Engine.in_flight}; feeds the conformance model's channel seed. *)

  (** {2 Faults}

      Channel events only (drop / duplicate / reorder / corrupt), decided
      on the sending shard with {!Fault.rng_for} streams; windows compare
      against the sender shard's causal round.  Scheduled events (crash /
      cut / link) mutate the graph under every shard and are rejected. *)

  val install_faults : t -> Fault.plan -> unit
  (** @raise Invalid_argument when the plan contains scheduled events. *)

  val fault_stats : t -> Fault.stats
  val faults_pending : t -> bool

  (** {2 Recorded schedule} *)

  type sched_event =
    | Sched_tick of { node : int }
    | Sched_deliver of { src : int; dst : int }

  val schedule : t -> (float * sched_event) array
  (** The executed events merged across shards in [(time, shard, seq)]
      order — by construction a schedule the sequential engine accepts.
      @raise Invalid_argument unless created with [~record:true]. *)
end
