(** One checked execution as data: the reproducer every check tool prints
    and {!Replay.replay} re-executes.

    A scenario names the protocol variant, the initial configuration, the
    topology, the engine seed, the schedule and the oracle that judges the
    run.  Conformance, convergence, the explorer's walks, the fuzzer and
    the sharded-engine check are generators of scenarios; none of them
    drives the engine itself.

    {2 The line format}

    One [;]-separated line of [key=value] pairs, e.g.

    [variant=suppressed;init=clean;n=3;edges=0-1,1-2;seed=5;events=400]

    - [variant=default|suppressed|broken] (default [default]);
    - [init=clean|legitimate|random] (default [random]);
    - [n=], optional [ids=], [edges=] — the topology;
    - [seed=] — the engine seed (default 0);
    - the oracle: [dc=1] selects {!Decouple}; otherwise [plan=] selects
      {!Converge} under that fault plan; otherwise {!Lockstep};
    - the schedule: [events=N] runs the engine's own order for [N] events,
      [sched=t0,0>1,...] (plus [steps=K] when [K] differs from the list's
      length) an explicit event list.  Without either the schedule is the
      engine's order for 100 events under {!Lockstep} and for 0 events
      otherwise.

    The printer always writes [init=], [n=], [edges=] and [seed=], and
    every other key only where it differs from its default.  The grammar
    reads the three older reproducer forms unchanged: conformance lines
    ([n=..;edges=..;seed=..;init=..;events=..]), convergence lines
    ([n=..;edges=..;seed=..;plan=..]) and fuzzer lines
    ([variant=..;init=..;...;sched=..]). *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model

type variant = [ `Default | `Suppressed | `Broken ]

type init = [ `Clean | `Legitimate | `Random ]

type schedule =
  | Natural of int  (** the engine's own arrival-time order, this many events *)
  | Events of { events : Model.event list; steps : int }
      (** An explicit event list, replayed strictly: a step that is not
          eligible fails closed.  [steps] is the execution horizon; it only
          exceeds the list's length in the fuzzer's adaptive runs, where
          the list is a preference order and the rest is random. *)

type oracle =
  | Lockstep
      (** The reference model steps with the engine: whole message at the
          channel head, node states after every event, closure of the
          legitimacy premise, and the in-flight channels at the end. *)
  | Converge of Mdst_sim.Fault.plan
      (** The plan is installed, the schedule runs as a prefix, then the
          engine runs to convergence: legitimate, FR fixpoint, no
          adversarial work outstanding, closure window, deg(T) <= deg_FR+1. *)
  | Decouple
      (** Twin engines apply the same corruption pulses with and without
          channel injection; their node states must agree.  The schedule
          is not used. *)

type t = {
  variant : variant;
  init : init;
  graph : Graph.t;
  seed : int;  (** engine seed: latencies, tick phases, initial corruption *)
  oracle : oracle;
  schedule : schedule;
}

val to_string : t -> string

val of_string : string -> t
(** @raise Invalid_argument on malformed input. *)

val variant_name : variant -> string

(** The protocol automata a scenario can name. *)
module type PROTO =
  Mdst_sim.Node.AUTOMATON
    with type state = Mdst_core.State.t
     and type msg = Mdst_core.Msg.t

val automaton : variant -> (module PROTO)
(** [`Default] and [`Suppressed] are {!Mdst_core.Proto}'s variants;
    [`Broken] is [`Default] with every [Grant] discarded on receipt — no
    swap ever commits — which exists to prove the oracles catch real
    protocol bugs. *)

val params : variant -> Model.params
(** The reference-model parameters that mirror the variant's
    configuration ([`Broken] is judged against the default model). *)
