(* The scenario format and its one replayer: every pinned reproducer line
   replays to its verdict, the mutation fixtures discriminate, and the
   lockstep oracle compares whole messages at the channel head in every
   schedule mode. *)

module Graph = Mdst_graph.Graph
module Node = Mdst_sim.Node
module Msg = Mdst_core.Msg
module Prng = Mdst_util.Prng
module Mutation = Mdst_util.Mutation
module Scenario = Mdst_check.Scenario
module Replay = Mdst_check.Replay
module Mutants = Mdst_check.Mutants

let expect = Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (Pinned.show e)) ( = )

let test_pinned_lines () =
  List.iter
    (fun (line, want) ->
      let printed = Scenario.to_string (Scenario.of_string line) in
      Alcotest.(check string) ("reprint is a fixpoint: " ^ line) printed
        (Scenario.to_string (Scenario.of_string printed));
      Alcotest.check expect line want (Pinned.verdict printed))
    Pinned.lines

(* Every mutation fixture holds with the mutants off and gives its pinned
   verdict with its own mutant on. *)
let test_mutant_fixtures () =
  Fun.protect ~finally:(fun () -> Mutation.force None) @@ fun () ->
  List.iter
    (fun (m : Mutants.mutant) ->
      let on = List.assoc m.name Pinned.mutant_fixtures in
      Alcotest.(check int) (m.name ^ ": fixtures pinned") (List.length on) (List.length m.fixtures);
      List.iter2
        (fun line want ->
          Mutation.force (Some []);
          Alcotest.check expect (m.name ^ " off: " ^ line) Pinned.Holds (Pinned.verdict line);
          Mutation.force (Some [ m.name ]);
          Alcotest.check expect (m.name ^ " on: " ^ line) want (Pinned.verdict line))
        m.fixtures on)
    Mutants.all

(* The default protocol, except that node 0 sends every Info with its
   subtree maximum off by one: the label at the channel head stays "info",
   only the payload differs from what the reference model sends. *)
module Tampered = struct
  include Mdst_core.Proto.Default

  let tamper (ctx : Msg.t Node.ctx) =
    if ctx.node <> 0 then ctx
    else
      let send dst = function
        | Msg.Info i -> ctx.send dst (Msg.Info { i with i_subtree_max = i.i_subtree_max + 1 })
        | m -> ctx.send dst m
      in
      { ctx with send }

  let on_tick ctx st = Mdst_core.Proto.Default.on_tick (tamper ctx) st

  let on_message ctx st ~src msg = Mdst_core.Proto.Default.on_message (tamper ctx) st ~src msg
end

let test_payload_mismatch () =
  let automaton = (module Tampered : Scenario.PROTO) in
  let s =
    {
      Scenario.variant = `Default;
      init = `Clean;
      graph = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ];
      seed = 7;
      oracle = Scenario.Lockstep;
      schedule = Scenario.Natural 200;
    }
  in
  (* The failure is the channel-head check at the last executed event, a
     delivery from node 0. *)
  let head_mismatch name (v : Replay.verdict) =
    match (v.failure, List.rev v.executed) with
    | Some { kind = Replay.Divergence; detail }, Mdst_model.Model.Deliver { src = 0; dst } :: _ ->
        let prefix =
          Printf.sprintf "event %d (0>%d): channel-head mismatch on 0->%d" (List.length v.executed)
            dst dst
        in
        Alcotest.(check bool) (name ^ ": " ^ detail) true (String.starts_with ~prefix detail)
    | _ -> Alcotest.failf "%s: tampered Info payload went unnoticed" name
  in
  let natural = Replay.replay ~automaton s in
  head_mismatch "engine order" natural;
  let events = natural.executed in
  let strict = { s with schedule = Scenario.Events { events; steps = List.length events } } in
  let v = Replay.replay ~automaton strict in
  head_mismatch "strict schedule" v;
  Alcotest.(check int) "strict replay fails at the same event" (List.length events)
    (List.length v.executed);
  let walk = { s with schedule = Scenario.Events { events = []; steps = 300 } } in
  head_mismatch "random walk" (Replay.replay ~automaton ~adaptive:(Prng.create 5) walk);
  Alcotest.(check bool) "the honest protocol holds on the same scenario" true
    ((Replay.replay s).failure = None)

let () =
  Alcotest.run "scenario"
    [
      ( "replay",
        [
          Alcotest.test_case "pinned lines give their verdicts" `Quick test_pinned_lines;
          Alcotest.test_case "mutant fixtures discriminate" `Quick test_mutant_fixtures;
          Alcotest.test_case "whole-message channel head in every mode" `Quick
            test_payload_mismatch;
        ] );
    ]
