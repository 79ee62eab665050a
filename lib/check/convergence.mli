(** Convergence-under-adversity: the paper's self-stabilization claim as
    an executable, shrinkable property.

    A case is a {!Scenario.t} with a random init, a fault plan
    ({!Scenario.Converge}) and the engine's own schedule.  {!Replay} runs
    the protocol while the plan's faults are injected and requires:

    + {b convergence}: within a round budget after the last fault, the
      configuration is legitimate ({!Mdst_core.Checker}), quiescent, the
      tree admits no Fürer–Raghavachari improvement, and no adversarial
      work is outstanding;
    + {b degree bound}: the final tree's degree is at most [deg_FR + 1]
      (which the paper's [Δ* + 1] guarantee implies, since [Δ* <= deg_FR]);
    + {b closure}: running an extra window after convergence changes
      neither legitimacy nor the protocol fingerprint — no further swap
      ever commits.

    Shrinking ({!Shrink.scenario}) deletes graph vertices (with the plan
    renumbered coherently), then fault events, then non-bridge edges, and
    replays every candidate from the case seed, yielding a minimal
    reproducer. *)

val gen_case :
  ?min_n:int ->
  ?max_n:int ->
  ?max_events:int ->
  ?horizon:int ->
  Scenario.variant ->
  Scenario.t Gen.t
(** Defaults follow {!Gen.connected_graph} and {!Gen.fault_plan}. *)

val property :
  ?budget:Replay.budget ->
  ?min_n:int ->
  ?max_n:int ->
  ?max_events:int ->
  ?horizon:int ->
  Scenario.variant ->
  Scenario.t Property.t
(** Named [convergence-under-adversity:<automaton>].  With [`Suppressed]
    the adversary also corrupts the suppression cache ([last_info] /
    [info_age]), so this validates that the periodic refresh preserves
    self-stabilization; [`Broken] must be falsified. *)
