(* Reproducer lines the test suites pin, with the verdict [Replay] must
   give on each.  The mutation fixtures live in [Mdst_check.Mutants]. *)

module Replay = Mdst_check.Replay

type expect = Holds | Fails of Replay.kind | Cannot_replay

let k5 = "0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4"

(* Exact-replay regression matrix: pinned end-to-end outcomes for the real
   protocol under fixed (topology, plan, seed) triples — rounds, degree,
   drops+corruptions+cuts, crashes+reorders+links.  Any change to the
   engine's event ordering, the fault interpreter or the protocol shifts
   these numbers: fault executions must replay bit-identically. *)
let fault_matrix =
  [
    ( "ring8 drop+crash",
      "n=8;edges=0-1,1-2,2-3,3-4,4-5,5-6,6-7,0-7;seed=5;plan=seed=2|drop:0-80:0>1:0.5|crash:60:3:random",
      (124, 2, 46, 1) );
    ( "petersen cut+link",
      "n=10;edges=0-1,1-2,2-3,3-4,0-4,0-5,1-6,2-7,3-8,4-9,5-7,7-9,9-6,6-8,8-5;seed=9;plan=seed=4|cut:40:0-1|link:90:0-2",
      (284, 2, 1, 1) );
    ( "grid9 corrupt+reorder",
      "n=9;edges=0-1,1-2,3-4,4-5,6-7,7-8,0-3,3-6,1-4,4-7,2-5,5-8;seed=13;plan=seed=8|corrupt:0-60:4>1:0.75|reorder:0-120:1>4:0.5:6",
      (174, 2, 56, 111) );
  ]

(* A long adversarial-start lockstep run on K5: enough events to cover
   every message family, including the Remove/Grant/Reverse swap pass. *)
let k5_lockstep = Printf.sprintf "n=5;edges=%s;seed=3;init=random;events=1500" k5

(* Lines in the three historical grammars — conformance, convergence and
   fuzzer — plus the shrunk reproducers and fixtures the suites use. *)
let lines =
  [
    ("n=4;edges=0-1,1-2,2-3,0-3;seed=7;init=random;events=40", Holds);
    ("n=3;ids=2,0,1;edges=0-1,1-2;seed=1;init=clean;events=5", Holds);
    (k5_lockstep, Holds);
    ("n=4;edges=0-1,1-2,2-3,0-3;seed=7;plan=seed=3|drop:0-10:0>1:0.5", Holds);
    ("n=4;ids=2,0,3,1;edges=0-1,1-2,2-3;seed=1;plan=seed=0", Holds);
    ("n=3;edges=0-1,1-2;seed=0;plan=seed=9|dup:3-4:1>0:0.75:2|crash:5:2:init", Holds);
    ( "n=5;edges=0-1,1-2,2-3,3-4,0-4,1-3;seed=11;plan=seed=2|drop:0-20:1>2:0.5|crash:9:4:random|cut:5:1-3",
      Holds );
    (* the case that exposed the stop-check / scheduled-fault race *)
    ( "n=7;ids=5,1,3,4,0,7,2;edges=0-1,0-5,1-4,2-5,2-6,3-4,4-6;seed=341458;plan=seed=711241|cut:208:2-5",
      Holds );
    ("variant=default;init=clean;n=3;edges=0-1,0-2,1-2;seed=7;sched=t0,t1,0>1", Holds);
    ( "variant=suppressed;init=random;n=4;ids=3,0,2,1;edges=0-1,1-2,2-3;seed=1;plan=seed=5|corrupt:3-9:1>2:0.5;steps=4;sched=t0,t1,0>1,t2",
      Holds );
    ("variant=default;init=legitimate;n=3;edges=0-1,1-2;seed=2;dc=1", Holds);
    (* strict replay fails closed: an empty channel, an exhausted schedule *)
    ("variant=default;init=clean;n=3;edges=0-1,0-2,1-2;seed=7;sched=0>1", Cannot_replay);
    ("variant=default;init=clean;n=3;edges=0-1,0-2,1-2;seed=7;steps=5;sched=t0", Cannot_replay);
    (* a shrunk falsification of the grant-dropping variant *)
    ( "variant=broken;n=5;ids=3,2,0,1,4;edges=0-2,1-2,1-4,2-3,3-4;seed=936256;plan=seed=435719",
      Fails Replay.Adversity );
  ]
  @ List.map (fun (_, line, _) -> (line, Holds)) fault_matrix

(* What each mutation fixture (in [Mdst_check.Mutants] order) gives with
   its mutant forced on; every fixture holds with the mutants off.  The
   third grant-drop fixture holds even with its mutant on. *)
let mutant_fixtures =
  [
    ("grant-drop", [ Fails Replay.Divergence; Fails Replay.Divergence; Holds ]);
    ("stop-check-race", [ Fails Replay.Adversity ]);
    ("corrupt-shared-stream", [ Fails Replay.Decoupling ]);
    ("suppression-no-refresh", [ Fails Replay.Divergence; Fails Replay.Divergence ]);
  ]

let verdict line =
  match Replay.replay (Mdst_check.Scenario.of_string line) with
  | exception Failure _ -> Cannot_replay
  | { failure = None; _ } -> Holds
  | { failure = Some f; _ } -> Fails f.kind

let show = function
  | Holds -> "holds"
  | Fails k -> "fails: " ^ Replay.kind_to_string k
  | Cannot_replay -> "cannot replay"
