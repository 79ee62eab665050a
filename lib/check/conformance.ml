(* Lockstep conformance scenarios.  See conformance.mli. *)

module Prng = Mdst_util.Prng

let gen_case ?min_n ?max_n ?(max_events = 400) variant rng =
  let graph = Gen.connected_graph ?min_n ?max_n () (Prng.split rng) in
  let seed = Prng.int rng 1_000_000 in
  let init = if Gen.bool (Prng.split rng) then `Random else `Clean in
  let events = 1 + Prng.int rng max_events in
  { Scenario.variant; init; graph; seed; oracle = Scenario.Lockstep; schedule = Scenario.Natural events }

let property ?min_n ?max_n ?max_events variant =
  let (module A : Scenario.PROTO) = Scenario.automaton variant in
  Property.make
    ~name:(Printf.sprintf "model-conformance:%s:%s" A.name (Scenario.variant_name variant))
    ~gen:(gen_case ?min_n ?max_n ?max_events variant)
    ~shrink:Shrink.scenario ~print:Scenario.to_string
    (fun s -> Replay.prop s)
