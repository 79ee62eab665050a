(** The one driver of the check layer: run a {!Scenario.t} on the engine
    and judge it with the scenario's oracle.

    A tap around the automaton records which handler each engine step ran,
    with the delivered message, so the engine's own order and a chosen
    order ({!Mdst_sim.Engine.Make.step_with}) are observed the same way.

    - {b Lockstep}: the reference model ({!Mdst_model.Model}) replays every
      executed event.  The delivered message must equal the model's channel
      head, whole; the node states must be equal (structural compare
      first, projections only to explain a mismatch); a configuration that
      satisfied the closure premise ({!Closure.premise}) must step to a
      legitimate one (the premise is evaluated only where a step leaves
      legitimacy); and at the end the in-flight channel contents must
      agree.
    - {b Converge}: the schedule runs as a prefix under the installed
      plan, then the engine runs to convergence under {!stop_after_faults};
      the run must converge within the budget, with no adversarial work
      outstanding, hold still for the closure window, and end with
      deg(T) <= deg_FR + 1.
    - {b Decouple}: twin engines, corruption pulses that differ only in
      the [channels] flag, equal node states required. *)

type kind = Divergence | Closure | Adversity | Decoupling | Crash
(** [Crash] is never produced here: it is the fuzzer's name for an
    exception escaping an execution. *)

val kind_to_string : kind -> string

type failure = { kind : kind; detail : string }

(** Round budgets of the convergence oracle (asynchronous rounds). *)
type budget = {
  settle_rounds : int;  (** flat allowance after the last fault *)
  per_node_rounds : int;  (** additional allowance per node *)
  closure_rounds : int;  (** window the closure check runs for *)
}

val default_budget : budget
(** [{ settle_rounds = 4000; per_node_rounds = 250; closure_rounds = 80 }] *)

(** What the convergence oracle measured. *)
type adversity = {
  converged : bool;
  rounds : int;  (** rounds at the first stop check that held *)
  last_fault_round : int;
  degree : int option;  (** deg(T) at the stop, when a tree exists *)
  fr_degree : int;  (** FR reference degree on the final topology *)
  closure_ok : bool;  (** true when not applicable (no convergence) *)
  stats : Mdst_sim.Fault.stats;  (** what the adversary actually did *)
}

type verdict = {
  executed : Mdst_model.Model.event list;
      (** the events the schedule ran, oldest first: a strict
          {!Scenario.Events} schedule that replays this execution *)
  fingerprints : int list;
      (** sampled {!Mdst_core.Projection.fingerprint_states}, newest first
          (every lockstep step, every 4th prefix step, every pulse) *)
  coarse : int list;  (** the same samples, labeling-insensitive *)
  states : Mdst_core.State.t array;  (** final node states *)
  adversity : adversity option;  (** [Some] under {!Scenario.Converge} *)
  failure : failure option;  (** [None]: every check held *)
}

val replay :
  ?budget:budget ->
  ?adaptive:Mdst_util.Prng.t ->
  ?automaton:(module Scenario.PROTO) ->
  Scenario.t ->
  verdict
(** Without [adaptive], an {!Scenario.Events} schedule replays strictly.
    With [adaptive], it is a preference list — the first still-eligible
    event from the cursor runs, otherwise a uniform random eligible one —
    until [steps] events ran.  [automaton] runs in place of the variant's automaton
    (the model keeps the variant's parameters): a deliberately wrong
    protocol that checks the checker.
    @raise Failure when a strict schedule cannot be replayed as written:
    it is empty, [steps] exceeds its length, or a step is not eligible
    (tick not armed, channel empty or purged). *)

val prop : ?budget:budget -> Scenario.t Property.prop
(** [replay] as a property: [Error detail] on a failure. *)

val stop_after_faults :
  last_fault:int ->
  rounds:('e -> int) ->
  faults_pending:('e -> bool) ->
  ('e -> bool) ->
  'e ->
  bool
(** [stop_after_faults ~last_fault ~rounds ~faults_pending stop] holds
    when [stop] does, strictly past the plan's last fault round, with no
    adversarial work outstanding.  [stop] is evaluated first, every time,
    so a stateful predicate never misses a sample.  The [faults_pending]
    conjunct closes a race: a fault scheduled at round [r] fires when the
    engine processes an event at or past [r], which can be after a stop
    check already ran at round [r]. *)
