module Mutation = Mdst_util.Mutation

type verdict = Detected of string | Silent of string

type mutant = { name : string; source : string; fixtures : string list }

(* Each mutant is caught by replaying fixed scenario lines — shrunk
   reproducers found by running the generating properties under the
   mutant — so [mdst_sim mutate] is fast and deterministic rather than a
   fresh property search per run. *)
let probe m =
  let rec go = function
    | [] -> Silent (Printf.sprintf "every oracle held across %d fixture(s)" (List.length m.fixtures))
    | line :: rest -> (
        match (Replay.replay (Scenario.of_string line)).failure with
        | Some f -> Detected (Printf.sprintf "%s: %s  [%s]" (Replay.kind_to_string f.kind) f.detail line)
        | None -> go rest)
  in
  go m.fixtures

let k5 = "0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4"

(* Shrunk reproducer of the faults_pending race: a corruption window closes
   before its tampered message is delivered, so a stop check that ignores
   [Engine.faults_pending] declares convergence on a doomed configuration. *)
let race_fixture =
  "n=5;ids=5,3,4,1,2;edges=0-1,0-4,1-2,1-3,1-4,2-3,3-4;seed=57795;plan=seed=338085|corrupt:383-387:1>3:0.73"

let all =
  [
    {
      name = "grant-drop";
      source = "PR 1 lossy variant: Grants discarded on receipt, validated \
                swaps never commit";
      (* Random starts on K5 force degree-improving swaps, so Grants flow;
         long event horizons make sure one is delivered in-window. *)
      fixtures =
        List.map
          (fun seed -> Printf.sprintf "n=5;edges=%s;seed=%d;init=random;events=8000" k5 seed)
          [ 11; 23; 47 ];
    };
    {
      name = "stop-check-race";
      source = "PR 1 harness race: stop predicate ran while scheduled or \
                in-flight tampered faults were still pending";
      fixtures = [ race_fixture ];
    };
    {
      name = "corrupt-shared-stream";
      source = "PR 2 schedule coupling: channel corruption drew from the \
                engine's own stream";
      (* [corrupt ~channels:b] must advance the engine's own stream
         identically for both values of [b]. *)
      fixtures = [ "init=clean;n=4;edges=0-1,0-2,0-3,1-2,1-3,2-3;seed=9;dc=1" ];
    };
    {
      name = "suppression-no-refresh";
      source = "PR 3 failure mode: dirty-bit Info suppression without the \
                periodic refresh";
      (* Clean starts quiesce quickly, so the 8-tick refresh boundary is
         reached with an unchanged Info cache well inside the budget. *)
      fixtures =
        [
          "variant=suppressed;n=3;edges=0-1,1-2;seed=5;init=clean;events=400";
          "variant=suppressed;n=4;edges=0-1,1-2,2-3,0-3;seed=9;init=clean;events=600";
        ];
    };
  ]

(* The registry and the flag namespace must not drift apart. *)
let () = assert (List.map (fun m -> m.name) all = Mutation.names)

let find name =
  match List.find_opt (fun m -> m.name = name) all with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Mutants.find: unknown mutant %S (known: %s)" name
           (String.concat ", " (List.map (fun m -> m.name) all)))

type outcome = {
  name : string;
  source : string;
  caught : bool;
  clean : bool;
  on_detail : string;
  off_detail : string;
}

let ok o = o.caught && o.clean

let run (m : mutant) =
  Fun.protect ~finally:(fun () -> Mutation.force None) @@ fun () ->
  Mutation.force (Some [ m.name ]);
  let on_v = probe m in
  Mutation.force (Some []);
  let off_v = probe m in
  let detail = function Detected d | Silent d -> d in
  {
    name = m.name;
    source = m.source;
    caught = (match on_v with Detected _ -> true | Silent _ -> false);
    clean = (match off_v with Silent _ -> true | Detected _ -> false);
    on_detail = detail on_v;
    off_detail = detail off_v;
  }

let run_all () = List.map run all
