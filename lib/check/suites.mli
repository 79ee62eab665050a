(** Named property suites over the repository's foundations.

    These are the properties that the `mdst_sim pbt` subcommand and the
    bounded `dune runtest` suite share, packed existentially so callers
    can iterate over suites without knowing each case type.  The
    convergence-under-adversity property itself lives in {!Convergence}
    (it needs budgets and a protocol variant); everything generator-,
    PRNG-, graph- and reproducer-format-shaped is here. *)

type packed = Pack : 'a Property.t -> packed

val name : packed -> string

val check : ?tests:int -> ?seed:int -> packed -> Property.result

val prng : packed list
(** {!Mdst_util.Prng}: [int_in] bounds, [sample_without_replacement]
    cardinality/distinctness/range, pairwise-distinct [split] streams,
    create/copy determinism. *)

val graph : packed list
(** {!Mdst_graph}: Prüfer encode ∘ decode identity, generated graphs
    connected with n in range, {!Mdst_graph.Io} round-trip,
    {!Shrink.graph} candidates stay connected. *)

val faults : packed list
(** Reproducer formats: {!Mdst_sim.Fault} plans and {!Scenario} lines of
    every oracle, variant, init and schedule shape parse back to equal
    values (and printing is a fixpoint of parsing); generated plans
    respect the horizon. *)

val model : packed list
(** {!Mdst_model.Model} and its checking stack: [step] determinism over
    random enabled-event walks, {!Mdst_core.Projection} string round-trip,
    fingerprint consistency (allocation-free hash = projection hash, phase
    bits excluded), and the {!Conformance} lockstep property for both the
    default and suppressed variants. *)

val proto : packed list
(** {!Searchpath}: a completed fundamental-cycle Search reports the exact
    tree path between its non-tree edge's endpoints. *)

val all : packed list
(** [prng @ graph @ faults @ model @ proto]. *)

val by_name : string -> packed list
(** ["prng" | "graph" | "faults" | "model" | "proto" | "all"].
    @raise Invalid_argument on anything else. *)

val suite_names : string list
