(** The discrete-event execution engine.

    The engine implements the paper's system model: an asynchronous
    message-passing network with reliable FIFO channels.  Every node runs
    one automaton instance; message transmissions receive a latency from the
    {!Latency} model, and per-channel FIFO order is enforced even when a
    later message samples a smaller latency.  A periodic local timer drives
    the paper's "Do forever: send InfoMsg" loop.

    {2 Round accounting}

    [rounds t] reports the {e causal depth} of the execution: every event
    carries a tag one larger than the tag of the event that caused it, and
    the round counter is the maximum tag processed.  This is the standard
    asynchronous-round measure the paper's time-complexity claims use — a
    round is over once everything enabled at the start of the round has been
    scheduled — and it is independent of the latency model's absolute
    numbers.

    {2 Memory model}

    The engine's footprint is O(n + m + in-flight messages): per-node
    state/context arrays, one event pool ({!Pool}), and per-channel FIFO
    floors stored as one float per {e adjacent} ordered pair (a slot per
    neighbour, in [Graph.neighbors] order) — there is no per-ordered-pair
    matrix, so simulations scale to thousands of nodes (see EXPERIMENTS.md
    E19).
    Installed fault plans index their channel events by ordered channel, so
    a send on an untampered channel does no fault-list scanning and builds
    no label string. *)

(** What an attached observer sees (message payloads are reduced to their
    family label so observers remain protocol-generic).  [Obs_fault] records
    every action of an installed {!Fault.plan} — a trace always explains
    what the adversary did. *)
type observation =
  | Obs_tick of { node : int; round : int; time : float }
  | Obs_deliver of { src : int; dst : int; label : string; round : int; time : float }
  | Obs_fault of { kind : string; detail : string; round : int; time : float }

val fifo_epsilon : float
(** Minimum spacing the FIFO floor enforces between consecutive arrivals on
    one channel.  Exposed so {!Pengine} applies the {e same} constant — the
    two engines must agree on timestamps for the conformance replay to
    hold. *)

val slot_in : int array -> int -> int
(** [slot_in neighbours v]: the slot of [v] in a strictly increasing
    neighbour array, or [-1].  The one adjacency search of a send: both
    engines validate the destination and find the channel's FIFO floor
    with it. *)

(** A simulated clock and the adversarial-traffic horizon of
    {!Make.faults_pending}, shared by both engines.  All fields are floats,
    so OCaml stores them unboxed and writing them allocates nothing. *)
type clock = { mutable now : float; mutable tampered_until : float }

module Make (A : Node.AUTOMATON) : sig
  type t

  type init =
    [ `Clean  (** every node boots via [A.init] *)
    | `Random  (** adversarial start: [A.random_state] + corrupted channels *)
    | `Custom of A.msg Node.ctx -> Mdst_util.Prng.t -> A.state ]

  val create :
    ?latency:Latency.t ->
    ?tick_period:float ->
    ?seed:int ->
    ?init:init ->
    Mdst_graph.Graph.t ->
    t
  (** Defaults: uniform latency, [tick_period = 1.0], [seed = 42],
      [init = `Clean].  The graph must be connected and non-empty. *)

  (** {1 Execution} *)

  val step : t -> bool
  (** Process one event; [false] when no event is pending (cannot happen
      while ticks are armed). *)

  type outcome = {
    converged : bool;
    rounds : int;
    time : float;
    deliveries : int;
  }

  val run :
    t -> ?max_rounds:int -> ?check_every:int -> stop:(t -> bool) -> unit -> outcome
  (** Run until [stop] holds (checked every [check_every] rounds, default 1)
      or [max_rounds] (default 200_000) is exceeded. *)

  (** {1 Observation} *)

  val graph : t -> Mdst_graph.Graph.t

  val state : t -> int -> A.state

  val states : t -> A.state array
  (** The live array — do not mutate; use {!set_state}. *)

  val now : t -> float

  val rounds : t -> int

  val metrics : t -> Metrics.t

  val pending_events : t -> int

  val in_flight_exists : t -> (A.msg -> bool) -> bool
  (** Is any queued message satisfying the predicate still undelivered? *)

  val in_flight : t -> (int * int * A.msg) list
  (** Every queued message as [(src, dst, msg)], sorted by arrival time.
      Per-channel arrival times are strictly increasing (the FIFO floor),
      so restricted to one ordered channel the list is in delivery order —
      what a conformance model needs to seed its queues.  O(events log
      events); an observation hook, not for hot paths. *)

  (** {1 Schedule control (testing hook)} *)

  (** One eligible next step for {!step_with}: a node's armed tick, or the
      FIFO head of a non-empty ordered channel. *)
  type choice =
    | Choose_tick of { node : int }
    | Choose_deliver of { src : int; dst : int; label : string }

  val step_with : t -> choose:(choice array -> int) -> bool
  (** Like {!step}, but the caller picks which eligible event runs instead
      of the arrival-time order: [choose] receives the eligible events
      (every armed tick in node order, then every non-empty channel's FIFO
      head in [(src * n) + dst] order) and returns an index into the
      array.  Per-channel FIFO is preserved by construction; everything
      else — tick fairness, latency realism, cross-channel order — is
      surrendered to the caller, which is the point: the bounded schedule
      explorer enumerates exactly these choices.  Virtual time still only
      moves forward (executing an event whose arrival time already passed
      does not rewind [now]).
      @raise Invalid_argument if [choose] returns an out-of-range index. *)

  (** {1 Fault injection}

      Ad-hoc primitives first; {!install_faults} interprets a declarative,
      replayable {!Fault.plan} on top of them.  Plan-driven faults draw all
      randomness from per-event streams ({!Fault.rng_for}), never from the
      engine's own PRNG, so installing a plan leaves the fault-free part of
      the execution byte-identical — experiment results do not shift when
      fault or PBT draws are added. *)

  val set_state : t -> int -> A.state -> unit

  val corrupt : t -> ?fraction:float -> ?channels:bool -> unit -> int
  (** Replace the state of a random [fraction] (default 1.0) of nodes by
      [A.random_state], optionally also injecting random channel contents.
      Returns the number of nodes hit.  The victim set is drawn from the
      engine's stream; each victim then gets its own split stream feeding
      its state corruption and (with [channels]) its injected payloads and
      their latency draws, so the engine's stream advances identically with
      and without [channels] — the post-corruption tick/latency schedule of
      the untouched channels is the same either way. *)

  val inject : t -> src:int -> dst:int -> A.msg -> unit
  (** Force a message onto a channel (the endpoints must be adjacent). *)

  val reset_node : t -> ?rng:Mdst_util.Prng.t -> [ `Init | `Random ] -> int -> unit
  (** Crash-restart one node: reinstall its state via [A.init] or
      [A.random_state].  [rng] (default: the engine's stream) feeds
      [`Random] re-initialization.  In-flight messages are untouched; use
      {!purge_channel} to model losing them. *)

  val purge_channel : t -> src:int -> dst:int -> int
  (** Drop every queued message on the ordered channel [src -> dst];
      returns how many were lost.  The channel's FIFO floor is {e kept}:
      messages sent after the purge are still delivered strictly after the
      arrival times of the purged ones, as on a real FIFO link that lost
      content without being re-established (see also {!Fault.event}
      [Crash], which purges all of a node's channels). *)

  val reshape :
    t ->
    ?remap:(old_graph:Mdst_graph.Graph.t -> new_graph:Mdst_graph.Graph.t -> A.state array -> A.state array) ->
    Mdst_graph.Graph.t ->
    unit
  (** Replace the topology mid-run (same node count, must stay connected).
      Messages in flight on vanished edges are lost; surviving channels
      keep their FIFO floors while new (or re-added) channels start fresh;
      node contexts are rebuilt (each node keeps its PRNG stream); [remap]
      re-homes the state
      array onto the new topology (default: states carried over untouched —
      protocol-specific carriers like [Mdst_core.Transplant.states] plug in
      here).  @raise Invalid_argument on node-count mismatch or a
      disconnected replacement. *)

  val install_faults :
    t ->
    ?remap:(old_graph:Mdst_graph.Graph.t -> new_graph:Mdst_graph.Graph.t -> A.state array -> A.state array) ->
    Fault.plan ->
    unit
  (** Interpret a {!Fault.plan} during subsequent execution: channel events
      tamper with sends while their round window is open; scheduled events
      (crash / cut / link) fire when {!step} first runs at or past their
      round.  [remap] is used by topology events (see {!reshape}).
      Replaces any previously installed plan. *)

  val fault_stats : t -> Fault.stats
  (** What the installed plan actually did so far (all-zero when no plan
      is installed). *)

  val faults_pending : t -> bool
  (** Is adversarial work from the installed plan still outstanding?  True
      while scheduled events (crash / cut / link) wait to fire — a fault
      scheduled at round [r] fires when the engine {e processes} an event
      at or past [r], which can be after a stop predicate already ran at
      round [r] — and also while any message a channel event tampered with
      (corrupted payload, duplicate copy, reordered delivery) is still in
      flight: such a message is adversarial state even after its round
      window closes, and delivering it can knock a quiescent configuration
      out of legitimacy.  Convergence checks must not declare victory while
      this holds. *)

  (** {1 Observation hooks} *)

  val observe : t -> (observation -> unit) -> unit
  (** Install an observer called before each event is executed (tracing,
      live statistics).  Replaces any previous observer. *)

  val unobserve : t -> unit
end
