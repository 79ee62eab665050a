(** The legitimacy-closure premise: the configurations from which every
    enabled event must lead to a legitimate configuration again.  Shared
    by the exhaustive explorer ({!Explore.dfs}) and the lockstep oracle of
    {!Replay}. *)

module Graph = Mdst_graph.Graph

val premise :
  Mdst_core.Msg.t Mdst_sim.Node.ctx array ->
  Graph.t ->
  Mdst_core.State.t array ->
  Mdst_core.Msg.t list array ->
  bool
(** Does the premise hold?  No pending swap, accurate fresh mirrors,
    premise-compatible in-flight messages (an Info equal to its sender's
    current variables, a Search whose stack matches the current degrees
    and distances, or a Deblock), a legitimate tree, and no
    Fürer–Raghavachari improvement available.  [channels] is indexed
    [(src * n) + dst], FIFO order. *)

val contexts : Graph.t -> Mdst_core.Msg.t Mdst_sim.Node.ctx array
(** Node contexts with a no-op [send], enough for {!premise} and
    {!legitimate_with}, which only read the topology. *)

val legitimate_states : Graph.t -> Mdst_core.State.t array
(** A legitimate configuration over the Fürer–Raghavachari tree of the
    graph: accurate fresh mirrors, no pending swap or deblock service —
    the [`Legitimate] init of a {!Scenario}. *)

val legitimate_with : Mdst_core.Msg.t Mdst_sim.Node.ctx array -> Graph.t -> Mdst_core.State.t array
(** {!legitimate_states} against prebuilt node contexts. *)
