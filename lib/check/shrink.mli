(** Greedy counterexample shrinking.

    A shrinker maps a failing value to a lazy sequence of strictly
    "smaller" candidates; {!Property.check} keeps the first candidate that
    still fails and iterates to a local minimum.  Every candidate must stay
    inside the test domain — graph shrinkers preserve connectivity, plan
    shrinkers only delete events (per-event PRNG streams make deletion
    non-interfering, see {!Mdst_sim.Fault.rng_for}).

    {b Strictness contract}: no exported shrinker ever yields a candidate
    equal to its input — each candidate is strictly smaller under the
    shrinker's size measure, enforced by {!strictly} at generation time.
    This is what makes greedy shrinking terminate, and what makes it
    idempotent: re-shrinking an already-minimal counterexample finds no
    candidate that still fails (in particular never the counterexample
    itself) and returns it unchanged. *)

type 'a t = 'a -> 'a Seq.t

val nothing : 'a t

val strictly : size:('a -> int) -> 'a t -> 'a t
(** [strictly ~size shrink] asserts, as each candidate is produced, that
    [size candidate < size input] — the strictness contract above.  Wrap
    any new shrinker in it. *)

val int : ?towards:int -> int t
(** Bisect towards [towards] (default 0). *)

val list : 'a list t
(** Remove chunks (halves first), then single elements — never reorders. *)

val graph : Mdst_graph.Graph.t t
(** Candidates, biggest reduction first: delete one vertex (neighbours
    renumbered densely, identifiers retained, connectivity preserved,
    never below 2 nodes), then delete one non-bridge edge. *)

val plan : Mdst_sim.Fault.plan t
(** Delete event chunks, then single events. *)

val remap_plan_without_vertex :
  removed:int -> Mdst_sim.Fault.plan -> Mdst_sim.Fault.plan
(** Companion to vertex deletion in {!graph}: drop every event mentioning
    the removed vertex and renumber references above it, so a (graph,
    plan) pair shrinks coherently. *)

val remove_vertex : Mdst_graph.Graph.t -> int -> Mdst_graph.Graph.t option
(** [remove_vertex g v] — [g] minus vertex [v] (dense renumbering, ids
    kept), or [None] if the result would be disconnected or smaller than 2
    nodes.  Exposed for joint graph + plan shrinking. *)

val scenario : Scenario.t t
(** For a scenario on the engine's own order: fewer events (bisection
    towards 1), then vertex deletions (the fault plan renumbered
    coherently), then fault-plan events, then non-bridge edges.  Every
    candidate replays from the scenario's seed; any failing candidate is a
    valid counterexample.  A scenario with an explicit event list has no
    candidates here — deleting a vertex would invalidate its events. *)
