(** Conformance checks for the sharded parallel engine ({!Mdst_sim.Pengine}).

    [run_case] records the merged [(time, shard, seq)] schedule of a
    k-shard run of the default protocol and replays it as a strict
    {!Scenario.Lockstep} scenario through {!Replay}: every recorded event
    must be eligible on the sequential engine and conform to the reference
    model, and the final states must equal the parallel engine's — the two
    engines share handler code and per-node protocol streams, so
    acceptance means the sharding changed nothing about what executed.

    [fingerprint_equivalence] converges one (seed, init) under several
    shard counts and requires identical quiescence fingerprints — the
    standing cross-validation behind the [pardet] CLI command and the CI
    multi-domain smoke job. *)

type case = {
  graph : Mdst_graph.Graph.t;
  seed : int;
  init : [ `Clean | `Random ];
  domains : int;
  until : float;  (** virtual-time horizon of the recorded run *)
}

type report = {
  events : int;  (** events executed and replayed *)
  failure : string option;  (** [None] = conformant *)
}

type equiv = {
  per_domain : (int * bool * int) list;  (** (domains, converged, fingerprint) *)
  agree : bool;
}

val run_case : case -> report

val fingerprint_equivalence :
  ?quiet_rounds:int ->
  ?max_rounds:int ->
  ?window:float ->
  seed:int ->
  init:[ `Clean | `Random ] ->
  domains:int list ->
  Mdst_graph.Graph.t ->
  equiv
