(* The schedule-fuzzing layer: strict replay failing closed, campaign
   soundness on the unmutated automaton, trophy reproducibility, shrink
   idempotence on the PR-4 stop-check-race reproducer, and the committed
   protocol-benchmark anchor the upcoming suppression fix will move. *)

module Graph = Mdst_graph.Graph
module Fault = Mdst_sim.Fault
module Mutation = Mdst_util.Mutation
module Shrink = Mdst_check.Shrink
module Fuzz = Mdst_check.Fuzz
module Scenario = Mdst_check.Scenario
module Replay = Mdst_check.Replay

let check = Alcotest.(check bool)

(* ---------------- shrink idempotence (PR-4 race fixture) ---------------- *)

let race_case () = Scenario.of_string Mdst_check.Mutants.race_fixture

let race_plan () =
  match (race_case ()).oracle with Scenario.Converge p -> p | _ -> Alcotest.fail "race fixture has no plan"

(* The strictness contract directly: no shrinker offers its input back. *)
let test_shrink_strictness () =
  let case = race_case () and plan = race_plan () in
  let plan_str = Fault.to_string plan in
  Seq.iter
    (fun p -> check "plan candidate differs from input" true (Fault.to_string p <> plan_str))
    (Shrink.plan plan);
  Seq.iter
    (fun g ->
      check "graph candidate strictly smaller" true
        (Graph.n g + Graph.m g < Graph.n case.graph + Graph.m case.graph))
    (Shrink.graph case.graph);
  let line = Scenario.to_string case in
  Seq.iter
    (fun c -> check "scenario candidate differs from input" true (Scenario.to_string c <> line))
    (Shrink.scenario case);
  (* A single-event plan must still offer the empty plan — otherwise
     "minimal" silently means "at least one event". *)
  check "singleton plan shrinks to empty" true
    (Seq.exists (fun p -> Fault.is_empty p) (Shrink.plan plan))

(* Greedy minimization is idempotent: once no candidate of a case still
   fails, re-shrinking returns the case unchanged.  Exercised on the PR-4
   tampered-message race with its historical bug forced back on. *)
let test_shrink_idempotent_on_race () =
  Fun.protect ~finally:(fun () -> Mutation.force None) @@ fun () ->
  Mutation.force (Some [ "stop-check-race" ]);
  let fails case = Result.is_error (Replay.prop case) in
  check "race fixture still fails under its mutant" true (fails (race_case ()));
  let rec minimize case =
    match Seq.find fails (Shrink.scenario case) with
    | Some smaller -> minimize smaller
    | None -> case
  in
  let m1 = minimize (race_case ()) in
  let m2 = minimize m1 in
  Alcotest.(check string) "re-shrinking the minimum returns it unchanged"
    (Scenario.to_string m1) (Scenario.to_string m2);
  check "minimum still fails" true (fails m2)

(* ---------------- strict replay fails closed ---------------- *)

let triangle () = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]

let entry ?(sched = []) ?steps () =
  let events = List.map Mdst_model.Model.event_of_string sched in
  let steps = match steps with Some s -> s | None -> List.length sched in
  {
    Scenario.variant = `Default;
    init = `Clean;
    graph = triangle ();
    seed = 7;
    oracle = Scenario.Lockstep;
    schedule = Scenario.Events { events; steps };
  }

let fails_closed name e =
  match Replay.replay e with
  | exception Failure _ -> ()
  | { failure = None; _ } -> Alcotest.failf "%s: replay fell back to default order" name
  | { failure = Some f; _ } -> Alcotest.failf "%s: replay reported a failure instead: %s" name f.detail

let test_replay_empty_schedule () = fails_closed "empty" (entry ())

let test_replay_exhausted () =
  fails_closed "exhausted" (entry ~sched:[ "t0" ] ~steps:5 ())

let test_replay_ineligible_channel () =
  (* From a clean init no message is in flight, so delivering 0>1 as the
     first step references an empty channel. *)
  fails_closed "empty channel" (entry ~sched:[ "0>1" ] ())

let test_step_with_out_of_range () =
  let module E = Mdst_sim.Engine.Make (Mdst_core.Proto.Default) in
  let e = E.create ~seed:1 ~init:`Clean (triangle ()) in
  check "out-of-range choice rejected" true
    (try
       ignore (E.step_with e ~choose:(fun options -> Array.length options));
       false
     with Invalid_argument _ -> true)

(* ---------------- entry reproducer format ---------------- *)

(* Fuzzer entry lines (variant=, sched=, steps=, dc=) read as scenarios;
   printing is a fixpoint of parsing. *)
let test_entry_print_parse_fixpoint () =
  let lines =
    [
      "variant=default;init=clean;n=3;edges=0-1,0-2,1-2;seed=7;sched=t0,t1,0>1";
      "variant=suppressed;init=random;n=4;ids=3,0,2,1;edges=0-1,1-2,2-3;seed=1;\
       plan=seed=5|corrupt:3-9:1>2:0.5;steps=4;sched=t0,t1,0>1,t2";
      "variant=default;init=legitimate;n=3;edges=0-1,1-2;seed=2;dc=1";
    ]
  in
  List.iter
    (fun line ->
      let once = Scenario.to_string (Scenario.of_string line) in
      let twice = Scenario.to_string (Scenario.of_string once) in
      Alcotest.(check string) "printing is a fixpoint of parsing" once twice)
    lines;
  let rejects s =
    try
      ignore (Scenario.of_string s);
      false
    with Invalid_argument _ -> true
  in
  check "empty rejected" true (rejects "");
  check "bad variant rejected" true (rejects "variant=wat;init=clean;n=3;edges=0-1,1-2;seed=1");
  check "bad sched token rejected" true
    (rejects "variant=default;init=clean;n=3;edges=0-1,1-2;seed=1;sched=xyz")

(* ---------------- campaign soundness and trophy replay ---------------- *)

(* No mutant forced: a bounded campaign must produce zero trophies in both
   arms — the oracles never convict the honest automaton. *)
let test_campaign_sound_unmutated () =
  List.iter
    (fun mode ->
      let st =
        Fuzz.campaign ~mode ~quick:true ~budget_s:8. ~max_execs:25
          ~shrink_trophies:false ~seed:42 ()
      in
      check "executions ran" true (st.Fuzz.s_execs > 0);
      check "coverage observed" true (st.Fuzz.s_fine > 0 && st.Fuzz.s_buckets > 0);
      match st.Fuzz.s_trophies with
      | [] -> ()
      | t :: _ ->
          Alcotest.failf "unmutated campaign produced a trophy: %s: %s  [%s]"
            (Replay.kind_to_string t.Fuzz.t_kind) t.Fuzz.t_detail
            (Scenario.to_string t.Fuzz.t_entry))
    [ `Fuzz; `Random_walk ]

(* With a historical bug forced on, the campaign finds a trophy and its
   one-line reproducer replays deterministically to the same verdict. *)
let test_trophy_replays () =
  Fun.protect ~finally:(fun () -> Mutation.force None) @@ fun () ->
  Mutation.force (Some [ "suppression-no-refresh" ]);
  let st =
    Fuzz.campaign ~quick:true ~budget_s:30. ~max_execs:60 ~stop_on_trophy:true
      ~seed:7 ()
  in
  match st.Fuzz.s_trophies with
  | [] -> Alcotest.fail "campaign missed the forced suppression mutant"
  | t :: _ -> (
      let line = Scenario.to_string t.Fuzz.t_entry in
      match (Replay.replay (Scenario.of_string line)).failure with
      | Some f ->
          Alcotest.(check string) "same trophy kind on replay"
            (Replay.kind_to_string t.Fuzz.t_kind) (Replay.kind_to_string f.kind)
      | None -> Alcotest.failf "trophy did not reproduce from its line: %s" line)

(* ---------------- committed benchmark anchor ---------------- *)

(* Satellite of the suppression work queued in ROADMAP: pin the committed
   BENCH_proto.json numbers for the dense-graph Suppressed anomaly (ER
   n=1024 takes ~3x the rounds and ~1.6x the messages of the unsuppressed
   run).  The upcoming suppression fix must regenerate the bench and
   consciously move this anchor. *)
let test_bench_proto_suppressed_anchor () =
  let path =
    List.find Sys.file_exists [ "../BENCH_proto.json"; "BENCH_proto.json" ]
  in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let contains line sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    m > 0 && go 0
  in
  let int_field line key =
    let pat = Printf.sprintf "\"%s\": " key in
    let n = String.length line and m = String.length pat in
    let rec find i =
      if i + m > n then Alcotest.failf "field %s not found in %s" key line
      else if String.sub line i m = pat then i + m
      else find (i + 1)
    in
    let start = find 0 in
    let stop = ref start in
    while !stop < n && (match line.[!stop] with '0' .. '9' -> true | _ -> false) do
      incr stop
    done;
    int_of_string (String.sub line start (!stop - start))
  in
  let point ~suppressed =
    let want = Printf.sprintf "\"suppression\": %b" suppressed in
    match
      List.find_opt
        (fun l ->
          contains l "\"topology\": \"er\"" && contains l "\"n\": 1024"
          && contains l want)
        !lines
    with
    | Some l -> l
    | None -> Alcotest.failf "no er/1024/suppression=%b point in BENCH_proto.json" suppressed
  in
  let supp = point ~suppressed:true and base = point ~suppressed:false in
  Alcotest.(check int) "suppressed rounds pinned" 2066 (int_field supp "rounds");
  Alcotest.(check int) "suppressed messages pinned" 42388633 (int_field supp "messages");
  Alcotest.(check int) "unsuppressed rounds pinned" 728 (int_field base "rounds");
  Alcotest.(check int) "unsuppressed messages pinned" 25877960 (int_field base "messages");
  (* The anomaly itself: suppression is supposed to cut traffic, but on
     dense ER graphs it currently inflates both rounds and messages. *)
  check "anomaly present: suppression costs messages" true
    (int_field supp "messages" > int_field base "messages");
  check "anomaly present: suppression costs rounds" true
    (int_field supp "rounds" > int_field base "rounds")

let () =
  Alcotest.run "fuzz"
    [
      ( "shrink",
        [
          Alcotest.test_case "strictness contract" `Quick test_shrink_strictness;
          Alcotest.test_case "idempotent on the PR-4 race reproducer" `Quick
            test_shrink_idempotent_on_race;
        ] );
      ( "replay",
        [
          Alcotest.test_case "empty schedule fails closed" `Quick test_replay_empty_schedule;
          Alcotest.test_case "exhausted schedule fails closed" `Quick test_replay_exhausted;
          Alcotest.test_case "ineligible channel fails closed" `Quick
            test_replay_ineligible_channel;
          Alcotest.test_case "step_with rejects out-of-range" `Quick
            test_step_with_out_of_range;
          Alcotest.test_case "entry print/parse fixpoint" `Quick test_entry_print_parse_fixpoint;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "sound on the unmutated automaton" `Quick
            test_campaign_sound_unmutated;
          Alcotest.test_case "trophy replays deterministically" `Quick test_trophy_replays;
        ] );
      ( "bench",
        [
          Alcotest.test_case "suppressed ER-1024 anchor" `Quick
            test_bench_proto_suppressed_anchor;
        ] );
    ]
