(** Mutation testing of the checking stack itself.

    Each mutant reintroduces one historical bug (see CHANGES.md) behind a
    {!Mdst_util.Mutation} flag; its probe runs the part of the suite that
    is supposed to notice.  A useful suite {e detects} every mutant when
    its flag is forced on and stays {e silent} when it is forced off — an
    undetected mutant means a conformance/convergence check has gone
    toothless, a noisy probe means it flags phantom bugs.  The
    [mdst_sim mutate] subcommand (CI job: mutation-check) enforces both
    directions. *)

(** What a probe observed: [Detected] means the suite flagged a bug. *)
type verdict = Detected of string | Silent of string

type mutant = {
  name : string;  (** a {!Mdst_util.Mutation.names} slug *)
  source : string;  (** which historical bug this reintroduces *)
  fixtures : string list;  (** {!Scenario} lines whose replay notices it *)
}

val probe : mutant -> verdict
(** Replay the fixtures under whatever mutant flags are currently forced:
    [Detected] at the first {!Replay.failure}.  Deterministic. *)

val all : mutant list
(** One mutant per {!Mdst_util.Mutation.names} slug, same order. *)

val race_fixture : string
(** The shrunk PR-4 stop-check-race reproducer (a {!Scenario.Converge}
    line): a corruption window that closes before its tampered message is
    delivered.  Exposed as the known-minimal fixture for shrinker
    idempotence tests. *)

val find : string -> mutant
(** @raise Invalid_argument on an unknown slug. *)

type outcome = {
  name : string;
  source : string;
  caught : bool;  (** probe with the mutant forced on said [Detected] *)
  clean : bool;  (** probe with the mutant forced off said [Silent] *)
  on_detail : string;
  off_detail : string;
}

val ok : outcome -> bool
(** [caught && clean]. *)

val run : mutant -> outcome
(** Probe with the mutant forced on, then with all mutants forced off;
    always restores the environment-driven flag state afterwards. *)

val run_all : unit -> outcome list
