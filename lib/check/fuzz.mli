(** Coverage-guided schedule fuzzing: the adversarial daemon as a search.

    The bounded explorer ({!Explore}) enumerates every interleaving of
    tiny instances and the PBT layer samples the engine's own schedules;
    neither seeks out the rare interleavings where self-stabilization
    proofs actually bite.  The fuzzer closes that gap greybox-style: it
    generates {!Scenario}s with explicit delivery schedules, replays each
    adaptively through {!Replay.replay} (the schedule is a preference
    order, the rest of the horizon random), and keeps a corpus of
    scenarios ranked by novelty — new projection fingerprints
    ({!Mdst_core.Projection.fingerprint_states} plus the
    labeling-insensitive {!Mdst_core.Projection.fingerprint_coarse}) and
    new handler-branch hit buckets (the [proto:*] probes riding the
    {!Mdst_util.Mutation} plumbing).  Interesting executions are mutated
    (swap / delay / duplicate-position / chunk-drop / crossover / tail
    extension) and fed back.

    {2 Swarm configurations}

    Every corpus entry carries its own configuration: protocol variant
    (default / suppressed), initial distribution (clean / legitimate /
    random) and oracle — {!Scenario.Lockstep}, {!Scenario.Converge} under
    a fault plan (fuzzed prefix, then the shared adversity oracle), or
    {!Scenario.Decouple} (twin engines replaying corruption pulses that
    must agree regardless of the [channels] flag).

    {2 Trophies}

    A failing execution is a {b trophy}: any {!Replay.failure}, or an
    exception ({!Replay.Crash}).  Trophies are greedily shrunk
    ({!shrink_trophy}) and printed as scenario lines that [mdst_sim
    replay] re-executes strictly. *)

type trophy = { t_kind : Replay.kind; t_entry : Scenario.t; t_detail : string }

val shrink_trophy : ?max_attempts:int -> trophy -> trophy
(** Greedy minimization: drop schedule chunks, then fault-plan events,
    re-running each candidate and keeping it only when the {e same}
    trophy kind still fires.  The result replays strictly.  Idempotent on
    already-minimal trophies (candidate sequences never include the
    input itself).  Default [max_attempts = 300] executions. *)

type mode = [ `Fuzz | `Random_walk ]
(** [`Fuzz] is the coverage-guided campaign (swarm sweep seeds, corpus,
    novelty feedback, mutation).  [`Random_walk] is the uniform baseline:
    a fresh random configuration and pure random scheduling every
    execution, no corpus, no feedback — the control arm the acceptance
    criterion compares against. *)

type stats = {
  s_mode : mode;
  s_execs : int;  (** executions performed *)
  s_corpus : int;  (** corpus entries retained (0 in [`Random_walk]) *)
  s_fine : int;  (** distinct projection fingerprints observed *)
  s_coarse : int;  (** distinct labeling-insensitive fingerprints *)
  s_buckets : int;  (** distinct (probe, hit-bucket) coverage points *)
  s_trophies : trophy list;  (** shrunk, most recent first *)
  s_elapsed : float;  (** CPU seconds *)
  s_timeline : (int * int) list;
      (** [(execs, distinct fine fingerprints)] samples, oldest first —
          the novelty-over-time curve BENCH_fuzz.json plots fuzz vs
          random *)
}

val campaign :
  ?mode:mode ->
  ?quick:bool ->
  ?budget_s:float ->
  ?max_execs:int ->
  ?max_n:int ->
  ?stop_on_trophy:bool ->
  ?shrink_trophies:bool ->
  ?corpus_dir:string ->
  seed:int ->
  unit ->
  stats
(** Run one campaign.  Defaults: [mode = `Fuzz], [quick = false],
    [budget_s = 60.], [max_execs = max_int], [stop_on_trophy = false],
    [shrink_trophies = true] ({!detect} turns it off — detection measures
    executions to the {e first} trophy, not minimization cost).
    [quick] caps graph sizes (CI smoke); [max_n] overrides the size cap.
    [corpus_dir], when given, is loaded before the swarm sweep and every
    retained entry / shrunk trophy is persisted into it ([NNNNNN.case],
    [trophy-N.case] + [trophy-N.info]).  Deterministic for a fixed seed
    and caps (budget permitting). *)

type detection = {
  d_mutant : string;
  d_fuzz : int option array;  (** per seed: execs to first trophy *)
  d_random : int option array;
}

val detect :
  ?seeds:int -> ?max_execs:int -> ?budget_s:float -> string -> detection
(** Force one {!Mdst_util.Mutation} mutant on and measure, over [seeds]
    independent campaign seeds (default 5), how many executions the
    coverage-guided campaign and the uniform random walker need to
    produce their first trophy.  [max_execs] (default 2000) and
    [budget_s] (default 120 s) cap each arm.  Restores the flag state.
    @raise Invalid_argument on an unknown mutant slug. *)

val median_execs : int option array -> max_execs:int -> int
(** Median with [None] censored at [max_execs + 1]. *)

val bench_json :
  ?quick:bool ->
  ?seeds:int ->
  ?max_execs:int ->
  ?budget_s:float ->
  seed:int ->
  unit ->
  string * bool
(** The BENCH_fuzz.json payload (schema [mdst-bench-fuzz/1]): campaign
    throughput and novelty timelines for both modes plus the per-mutant
    detection table.  The boolean is the acceptance verdict: every mutant
    detected in all fuzz seeds with a fuzz median strictly below the
    random median. *)
