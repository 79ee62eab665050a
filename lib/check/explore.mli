(** Bounded schedule exploration: every delivery interleaving of a small
    instance, checked for model conformance and closure.

    The engine's scheduler realizes {e one} interleaving per seed; the
    explorer enumerates {e all} of them up to caps.  From an initial
    configuration it runs a DFS over enabled events (every non-empty
    channel's FIFO head, every node's tick), keeping a visited set keyed by
    {!Mdst_core.Projection.fingerprint_states} (with full structural
    comparison inside each hash bucket, so collisions never hide a state).
    On every transition it checks

    - {b conformance}: the real handlers ({!Mdst_core.Proto}) and the
      reference model ({!Mdst_model.Model}), stepped from the same
      configuration by the same event, produce identical configurations;
    - {b closure}: from any configuration satisfying the legitimacy-closure
      premise ({!Closure.premise}), every successor is again legitimate.

    A violation reports the full event path from the initial configuration
    and, from a clean or legitimate start, a {!Scenario} line that
    {!Replay.replay} reproduces on the engine.

    For graphs beyond exhaustive reach, {!walk} is a {!Scenario} replayed
    with a seeded random chooser — random deep walks where the DFS does
    bounded-depth exhaustion. *)

module Graph = Mdst_graph.Graph

type init =
  [ `Clean  (** every node boots via the automaton's [init] *)
  | `Random of int  (** adversarial states + 0–2 junk messages per channel *)
  | `Legitimate
    (** a legitimate configuration built from the Fürer–Raghavachari tree
        ({!Closure.legitimate_states}) — the closure premise's natural
        starting point *) ]

type stats = {
  configs : int;  (** distinct configurations expanded *)
  transitions : int;  (** event applications (including duplicates' edges) *)
  max_depth_reached : int;
  truncated : bool;  (** a depth or config cap was hit somewhere *)
}

type kind = Conformance_divergence | Closure_violation

type violation = {
  kind : kind;
  path : string;  (** comma-joined events from the init, e.g. ["t0,0>2,t1"] *)
  detail : string;
  scenario : Scenario.t option;
      (** the path as a strict scenario, from a [`Clean] or [`Legitimate]
          start; the explorer's [`Random] configurations are not an
          engine init, so they have none *)
}

val pp_violation : Format.formatter -> violation -> unit

val dfs :
  ?max_depth:int ->
  ?max_configs:int ->
  variant:Scenario.variant ->
  init:init ->
  Graph.t ->
  stats * violation option
(** Defaults: [max_depth = 10], [max_configs = 20_000].  Exhaustive for
    the given caps: no violation means {e no} reachable configuration
    within them diverges or breaks closure. *)

val walk :
  ?steps:int ->
  variant:Scenario.variant ->
  seed:int ->
  init:[ `Clean | `Random ] ->
  Graph.t ->
  (int, string) result
(** A random-schedule {!Scenario.Lockstep} replay: [Ok steps], or [Error
    detail] on the first failure, with the executed schedule as a
    strict scenario line.  Default [steps = 500]. *)
