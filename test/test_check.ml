(* Self-tests of the property-based testing layer: the driver's
   generate-fail-shrink loop, the shrinkers' domain invariants, generator
   determinism, and the shared suites. *)

module Graph = Mdst_graph.Graph
module Fault = Mdst_sim.Fault
module Prng = Mdst_util.Prng
module Gen = Mdst_check.Gen
module Shrink = Mdst_check.Shrink
module Property = Mdst_check.Property
module Suites = Mdst_check.Suites
module Scenario = Mdst_check.Scenario

let check = Alcotest.(check bool)

(* ---------------- driver ---------------- *)

let test_passing_property () =
  let p =
    Property.make ~name:"tautology" ~gen:(Gen.int_in 0 100) (fun _ -> Ok ())
  in
  match Property.check ~tests:50 ~seed:1 p with
  | Property.Passed { tests } -> Alcotest.(check int) "all tests ran" 50 tests
  | Property.Falsified _ -> Alcotest.fail "tautology falsified"

let test_failing_property_shrinks () =
  let p =
    Property.make ~name:"all-below-50" ~gen:(Gen.int_in 0 1000) ~shrink:(Shrink.int ~towards:0)
      ~print:string_of_int
      (fun x -> if x < 50 then Ok () else Error "too big")
  in
  match Property.check ~tests:100 ~seed:3 p with
  | Property.Passed _ -> Alcotest.fail "must be falsified"
  | Property.Falsified c ->
      let v = int_of_string c.Property.printed in
      check "shrunk value still fails" true (v >= 50);
      (* Greedy descent reaches a local minimum: every further shrink
         candidate passes. *)
      check "local minimum" true
        (Seq.for_all (fun w -> w < 50) (Shrink.int ~towards:0 v));
      Alcotest.(check string) "reason kept" "too big" c.Property.reason

let test_check_deterministic () =
  let p =
    Property.make ~name:"flaky-free" ~gen:(Gen.int_in 0 1000) ~shrink:(Shrink.int ~towards:0)
      ~print:string_of_int
      (fun x -> if x mod 7 <> 0 then Ok () else Error "divisible by 7")
  in
  let run () =
    match Property.check ~tests:100 ~seed:9 p with
    | Property.Passed _ -> "passed"
    | Property.Falsified c -> c.Property.printed
  in
  Alcotest.(check string) "same seed, same trajectory" (run ()) (run ())

let test_check_exn () =
  let p =
    Property.make ~name:"never" ~gen:(Gen.int_in 0 10) (fun _ -> Error "always fails")
  in
  check "check_exn raises" true
    (try
       Property.check_exn ~tests:5 ~seed:1 p;
       false
     with Failure _ -> true)

(* ---------------- generators ---------------- *)

let test_gen_deterministic () =
  let show seed =
    let g = Gen.run (Gen.connected_graph ()) ~seed in
    let plan = Gen.run (Gen.fault_plan ~graph:g ()) ~seed in
    Mdst_graph.Io.to_string g ^ "|" ^ Fault.to_string plan
  in
  Alcotest.(check string) "same seed, same case" (show 5) (show 5);
  check "different seeds differ" true (show 5 <> show 6)

let test_gen_combinators () =
  let rng = Prng.create 3 in
  List.iter
    (fun _ ->
      let v = Gen.oneof [ Gen.return 1; Gen.return 2 ] (Prng.split rng) in
      check "oneof picks a member" true (v = 1 || v = 2);
      let w = Gen.frequency [ (1, Gen.return "a"); (3, Gen.return "b") ] (Prng.split rng) in
      check "frequency picks a member" true (w = "a" || w = "b");
      let xs = Gen.list_of ~len:(Gen.return 4) Gen.bool (Prng.split rng) in
      Alcotest.(check int) "list_of length" 4 (List.length xs))
    (List.init 20 Fun.id)

(* ---------------- shrinkers ---------------- *)

let test_shrink_int () =
  check "nothing below target" true (Seq.is_empty (Shrink.int ~towards:0 0));
  List.iter
    (fun v ->
      Seq.iter
        (fun c -> check "candidate strictly closer to target" true (c >= 0 && c < v))
        (Shrink.int ~towards:0 v))
    [ 1; 2; 17; 1000 ]

let test_shrink_list () =
  let xs = [ 1; 2; 3; 4; 5; 6 ] in
  let is_subsequence sub =
    let rec go sub full =
      match (sub, full) with
      | [], _ -> true
      | _, [] -> false
      | s :: srest, f :: frest -> if s = f then go srest frest else go sub frest
    in
    go sub xs
  in
  Seq.iter
    (fun c ->
      check "strictly shorter" true (List.length c < List.length xs);
      check "order preserved" true (is_subsequence c))
    (Shrink.list xs);
  check "empty list has no candidates" true (Seq.is_empty (Shrink.list ([] : int list)))

let test_remove_vertex () =
  let ring = Mdst_graph.Gen.ring 5 in
  (match Shrink.remove_vertex ring 2 with
  | None -> Alcotest.fail "ring minus one vertex stays connected"
  | Some g ->
      Alcotest.(check int) "one vertex fewer" 4 (Graph.n g);
      check "connected" true (Mdst_graph.Algo.is_connected g);
      (* Dense renumbering keeps the original identifiers of survivors. *)
      Alcotest.(check (list int)) "ids of survivors kept" [ 0; 1; 3; 4 ]
        (List.init 4 (Graph.id g)));
  let path = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  check "cutting a path's middle vertex rejected" true (Shrink.remove_vertex path 1 = None);
  (match Shrink.remove_vertex path 2 with
  | Some g -> Alcotest.(check int) "endpoint removal fine" 2 (Graph.n g)
  | None -> Alcotest.fail "endpoint removal must succeed");
  check "never below 2 nodes" true
    (Shrink.remove_vertex (Graph.of_edges ~n:2 [ (0, 1) ]) 0 = None)

let test_remap_plan_without_vertex () =
  let plan =
    Fault.of_string "seed=4|drop:0-10:1>3:0.5|crash:5:0:init|cut:7:2-3|link:9:0-1"
  in
  let remapped = Shrink.remap_plan_without_vertex ~removed:1 plan in
  (* Events mentioning node 1 vanish; references above 1 shift down. *)
  Alcotest.(check string) "renumbered coherently" "seed=4|crash:5:0:init|cut:7:1-2"
    (Fault.to_string remapped)

let test_shrink_case_joint () =
  (* A shrunk (graph, plan) pair must stay self-consistent: every plan
     event references nodes that exist in the shrunk graph. *)
  let case =
    Scenario.of_string
      "n=5;edges=0-1,1-2,2-3,3-4,0-4,1-3;seed=11;plan=seed=2|drop:0-20:1>2:0.5|crash:9:4:random|cut:5:1-3"
  in
  Seq.iter
    (fun (c : Scenario.t) ->
      check "candidate graph connected" true (Mdst_graph.Algo.is_connected c.graph);
      match c.oracle with
      | Scenario.Converge plan ->
          check "plan references only live nodes" true
            (List.for_all (fun v -> v >= 0 && v < Graph.n c.graph) (Fault.nodes_mentioned plan))
      | Scenario.Lockstep | Scenario.Decouple -> Alcotest.fail "shrinking changed the oracle")
    (Shrink.scenario case)

(* ---------------- reproducer format ---------------- *)

let rejects s =
  try
    ignore (Scenario.of_string s);
    false
  with Invalid_argument _ -> true

let check_print_parse_fixpoint lines =
  List.iter
    (fun line ->
      let once = Scenario.to_string (Scenario.of_string line) in
      let twice = Scenario.to_string (Scenario.of_string once) in
      Alcotest.(check string) "printing is a fixpoint of parsing" once twice)
    lines

(* Convergence lines read as scenarios with the convergence oracle, and
   printing is a fixpoint of parsing.  The conformance and fuzzer
   grammars have their own cases below and in test_fuzz.ml. *)
let test_case_print_parse_fixpoint () =
  check_print_parse_fixpoint
    [
      "n=4;edges=0-1,1-2,2-3,0-3;seed=7;plan=seed=3|drop:0-10:0>1:0.5";
      "n=4;ids=2,0,3,1;edges=0-1,1-2,2-3;seed=1;plan=seed=0";
      "n=3;edges=0-1,1-2;seed=0;plan=seed=9|dup:3-4:1>0:0.75:2|crash:5:2:init";
    ];
  let oracle line = (Scenario.of_string line).oracle in
  check "plan= means the convergence oracle" true
    (oracle "n=4;ids=2,0,3,1;edges=0-1,1-2,2-3;seed=1;plan=seed=0" = Scenario.Converge Fault.empty);
  check "dc=1 means decoupling" true
    (oracle "variant=default;init=legitimate;n=3;edges=0-1,1-2;seed=2;dc=1" = Scenario.Decouple);
  check "no init= means random" true
    ((Scenario.of_string "n=3;edges=0-1,1-2;seed=1;plan=seed=0").init = `Random)

let test_case_rejects_malformed () =
  check "empty" true (rejects "");
  check "missing edges" true (rejects "n=4;seed=1;plan=seed=0");
  check "bad edge" true (rejects "n=4;edges=0~1;seed=1;plan=seed=0");
  check "unknown key" true (rejects "n=4;edges=0-1;wat=1")

(* ---------------- protocol properties ---------------- *)

(* Non-vacuity of the search-path property: on a ring (exactly one
   non-tree edge) the spy must actually record completed searches after
   convergence — a property that silently observes nothing would pass for
   the wrong reason. *)
let test_searchpath_not_vacuous () =
  let module S = Mdst_check.Searchpath in
  let case = { S.graph = Mdst_graph.Gen.ring 8; seed = 5 } in
  let count = S.completed_count case in
  check "searches completed on the converged ring" true (count > 0);
  match S.prop case with
  | Ok () -> ()
  | Error reason -> Alcotest.fail ("search-path property failed on ring-8: " ^ reason)

(* Convergence-under-adversity with Info dirty-bit suppression ON: the
   adversary corrupts the suppression cache along with everything else, so
   this validates that the bounded-staleness refresh preserves
   self-stabilization (tentpole acceptance gate). *)
let test_suppressed_convergence () =
  let property = Mdst_check.Convergence.property ~max_n:7 ~max_events:3 `Suppressed in
  match Property.check ~tests:6 ~seed:20090525 property with
  | Property.Passed _ -> ()
  | Property.Falsified c ->
      Alcotest.fail (Property.render ~name:property.Property.name c)

(* ---------------- conformance / explorer / mutants ---------------- *)

(* Conformance lines (init=, events=) read as lockstep scenarios in the
   engine's natural order; printing is a fixpoint of parsing. *)
let test_conformance_format () =
  let lines =
    [
      "n=4;edges=0-1,1-2,2-3,0-3;seed=7;init=random;events=40";
      "n=3;ids=2,0,1;edges=0-1,1-2;seed=1;init=clean;events=5";
    ]
  in
  check_print_parse_fixpoint lines;
  List.iter
    (fun line ->
      check "events= means the lockstep oracle" true
        ((Scenario.of_string line).oracle = Scenario.Lockstep))
    lines;
  check "bad init" true (rejects "n=3;edges=0-1,1-2;seed=1;init=wat;events=5");
  check "bad events" true (rejects "n=3;edges=0-1,1-2;seed=1;init=clean;events=-2");
  (* omitted events falls back to the documented default *)
  check "events default" true
    ((Scenario.of_string "n=3;edges=0-1,1-2;seed=1;init=clean").schedule = Scenario.Natural 100)

(* A long adversarial-start lockstep run on K5: enough events to cover
   every message family, including the Remove/Grant/Reverse swap pass. *)
let test_conformance_lockstep () =
  let module Rp = Mdst_check.Replay in
  let v = Rp.replay (Scenario.of_string Pinned.k5_lockstep) in
  Alcotest.(check int) "all events ran" 1500 (List.length v.Rp.executed);
  match v.Rp.failure with None -> () | Some f -> Alcotest.fail f.Rp.detail

let test_explore_smoke () =
  let module X = Mdst_check.Explore in
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  List.iter
    (fun init ->
      let stats, vio = X.dfs ~max_depth:6 ~max_configs:2_000 ~variant:`Default ~init g in
      check "explored more than the root" true (stats.X.configs > 1);
      match vio with
      | None -> ()
      | Some v ->
          Alcotest.failf "violation: %s" (Format.asprintf "%a" X.pp_violation v))
    [ `Clean; `Legitimate; `Random 4 ];
  match X.walk ~steps:200 ~variant:`Default ~seed:11 ~init:`Random g with
  | Ok n -> Alcotest.(check int) "walk ran all steps" 200 n
  | Error e -> Alcotest.fail ("lockstep walk diverged: " ^ e)

(* Non-vacuity: the lockstep walk must notice a seeded protocol bug. *)
let test_explore_walk_catches_mutant () =
  let module X = Mdst_check.Explore in
  let module Mutation = Mdst_util.Mutation in
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  Fun.protect ~finally:(fun () -> Mutation.force None) @@ fun () ->
  Mutation.force (Some [ "suppression-no-refresh" ]);
  match X.walk ~steps:300 ~variant:`Suppressed ~seed:5 ~init:`Clean g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "suppression mutant not caught by the lockstep walk"

(* The full registry: every historical bug detected when forced on, every
   probe silent when forced off (same gate as `mdst_sim mutate` / CI). *)
let test_mutation_check () =
  let module M = Mdst_check.Mutants in
  List.iter
    (fun (o : M.outcome) ->
      check (o.M.name ^ ": detected when forced on") true o.M.caught;
      check (o.M.name ^ ": silent when forced off") true o.M.clean)
    (M.run_all ())

(* ---------------- shared suites ---------------- *)

let suite_cases =
  List.map
    (fun packed ->
      Alcotest.test_case (Suites.name packed) `Quick (fun () ->
          match Suites.check ~tests:50 ~seed:2 packed with
          | Property.Passed _ -> ()
          | Property.Falsified c ->
              Alcotest.fail (Property.render ~name:(Suites.name packed) c)))
    Suites.all

(* ---------------- parcheck ---------------- *)

module Parcheck = Mdst_check.Parcheck

let test_parcheck_conformance () =
  (* The merged (time, shard, seq) schedule of a 2-shard run must replay
     through the reference model AND be accepted by the sequential engine
     with exact final-state equality. *)
  let g = Mdst_graph.Gen.grid ~rows:3 ~cols:3 in
  let r =
    Parcheck.run_case
      { Parcheck.graph = g; seed = 7; init = `Random; domains = 2; until = 25.0 }
  in
  (match r.Parcheck.failure with
  | None -> ()
  | Some why -> Alcotest.fail ("sharded schedule not conformant: " ^ why));
  check "replayed a non-trivial schedule" true (r.Parcheck.events > 100)

let test_parcheck_fingerprints () =
  let g = Mdst_graph.Gen.grid ~rows:3 ~cols:3 in
  let eq =
    Parcheck.fingerprint_equivalence ~max_rounds:20_000 ~seed:7 ~init:`Random
      ~domains:[ 1; 2; 4 ] g
  in
  List.iter
    (fun (d, converged, _) -> check (Printf.sprintf "domains=%d converged" d) true converged)
    eq.Parcheck.per_domain;
  check "fingerprints agree across shard counts" true eq.Parcheck.agree

let () =
  Alcotest.run "check"
    [
      ( "driver",
        [
          Alcotest.test_case "passing property" `Quick test_passing_property;
          Alcotest.test_case "failure shrinks to local minimum" `Quick
            test_failing_property_shrinks;
          Alcotest.test_case "deterministic from seed" `Quick test_check_deterministic;
          Alcotest.test_case "check_exn" `Quick test_check_exn;
        ] );
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "combinators" `Quick test_gen_combinators;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "int" `Quick test_shrink_int;
          Alcotest.test_case "list" `Quick test_shrink_list;
          Alcotest.test_case "remove_vertex" `Quick test_remove_vertex;
          Alcotest.test_case "remap plan" `Quick test_remap_plan_without_vertex;
          Alcotest.test_case "joint case shrink" `Quick test_shrink_case_joint;
        ] );
      ( "format",
        [
          Alcotest.test_case "print/parse fixpoint" `Quick test_case_print_parse_fixpoint;
          Alcotest.test_case "rejects malformed" `Quick test_case_rejects_malformed;
        ] );
      ( "proto",
        [
          Alcotest.test_case "search-path spy not vacuous" `Quick test_searchpath_not_vacuous;
          Alcotest.test_case "convergence with Info suppression" `Quick
            test_suppressed_convergence;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "case print/parse fixpoint" `Quick test_conformance_format;
          Alcotest.test_case "lockstep on K5 adversarial start" `Quick
            test_conformance_lockstep;
        ] );
      ( "explore",
        [
          Alcotest.test_case "triangle DFS and walk" `Quick test_explore_smoke;
          Alcotest.test_case "walk catches seeded mutant" `Quick
            test_explore_walk_catches_mutant;
        ] );
      ("mutants", [ Alcotest.test_case "registry discriminates" `Quick test_mutation_check ]);
      ( "parcheck",
        [
          Alcotest.test_case "sharded schedule conformance" `Quick test_parcheck_conformance;
          Alcotest.test_case "fingerprint equivalence across shards" `Quick
            test_parcheck_fingerprints;
        ] );
      ("suites", suite_cases);
    ]
