(** Reference-model conformance as a property: the real automaton under
    the engine's own schedule, the pure {!Mdst_model.Model} stepped in
    lockstep on exactly the events the engine ran ({!Scenario.Lockstep},
    judged by {!Replay}).

    Clean builds show zero divergences on every fixture and generated
    case; the mutation suite ({!Mutants}) relies on reintroduced
    historical bugs surfacing here. *)

val gen_case :
  ?min_n:int -> ?max_n:int -> ?max_events:int -> Scenario.variant -> Scenario.t Gen.t
(** A connected graph, an engine seed, a clean or random init and
    [1 .. max_events] (default 400) events of the engine's own order. *)

val property :
  ?min_n:int -> ?max_n:int -> ?max_events:int -> Scenario.variant -> Scenario.t Property.t
(** Named [model-conformance:<automaton>:<variant>]; shrinks with
    {!Shrink.scenario}. *)
