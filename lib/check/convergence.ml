(* Convergence-under-adversity scenarios.  See convergence.mli. *)

module Prng = Mdst_util.Prng

let gen_case ?min_n ?max_n ?max_events ?horizon variant rng =
  let graph = Gen.connected_graph ?min_n ?max_n () (Prng.split rng) in
  let plan = Gen.fault_plan ~graph ?max_events ?horizon () (Prng.split rng) in
  {
    Scenario.variant;
    init = `Random;
    graph;
    seed = Prng.int rng 1_000_000;
    oracle = Scenario.Converge plan;
    schedule = Scenario.Natural 0;
  }

let property ?budget ?min_n ?max_n ?max_events ?horizon variant =
  let (module A : Scenario.PROTO) = Scenario.automaton variant in
  Property.make
    ~name:("convergence-under-adversity:" ^ A.name)
    ~gen:(gen_case ?min_n ?max_n ?max_events ?horizon variant)
    ~shrink:Shrink.scenario ~print:Scenario.to_string
    (Replay.prop ?budget)
