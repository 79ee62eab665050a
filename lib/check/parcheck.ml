(* Conformance for the sharded parallel engine.  Two statements:

   1. Sharded-schedule conformance ([run_case]): record the merged
      (time, shard, seq) schedule of a k-shard run and replay it as a
      strict lockstep scenario ({!Replay}) on the sequential engine: every
      recorded event must be eligible there (armed tick / channel FIFO
      head), every delivery must match the reference model's channel
      head, every state the model's, and the final states must equal the
      parallel engine's.  The two engines share handler code and per-node
      protocol streams, so this holds iff the sharding changed nothing
      about *what* executed, only *where*.

   2. Fingerprint equivalence ([fingerprint_equivalence]): converge the
      same (seed, init) under several shard counts and compare the
      quiescence fingerprints.  The parallel engine's timestamps are
      k-independent by construction, so the executed schedules are
      equivalent and the stabilized configurations must agree bit for
      bit. *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model
module Checker = Mdst_core.Checker

type case = {
  graph : Graph.t;
  seed : int;
  init : [ `Clean | `Random ];
  domains : int;
  until : float;  (* virtual-time horizon of the recorded run *)
}

type report = { events : int; failure : string option }

type equiv = {
  per_domain : (int * bool * int) list;  (* domains, converged, fingerprint *)
  agree : bool;
}

module A = (val Scenario.automaton `Default)
module PE = Mdst_sim.Pengine.Make (A)
module R = Mdst_core.Run.Runner (A)

let run_case case =
  let pe =
    PE.create ~seed:case.seed ~init:(case.init :> PE.init) ~record:true ~domains:case.domains
      case.graph
  in
  PE.run_window pe ~until:case.until;
  let events =
    Array.to_list (PE.schedule pe)
    |> List.map (fun (_, ev) ->
           match (ev : PE.sched_event) with
           | PE.Sched_tick { node } -> Model.Tick node
           | PE.Sched_deliver { src; dst } -> Model.Deliver { src; dst })
  in
  let n = List.length events in
  let scenario =
    {
      Scenario.variant = `Default;
      init = (case.init :> Scenario.init);
      graph = case.graph;
      seed = case.seed;
      oracle = Scenario.Lockstep;
      schedule = Scenario.Events { events; steps = n };
    }
  in
  let failure =
    match Replay.replay scenario with
    | exception Failure why -> Some ("sequential engine rejected the schedule: " ^ why)
    | { failure = Some f; _ } -> Some f.detail
    | v -> (
        let final = PE.states pe in
        match List.find_opt (fun i -> final.(i) <> v.states.(i)) (List.init (Graph.n case.graph) Fun.id) with
        | Some i -> Some (Printf.sprintf "sequential replay final state differs at node %d after %d events" i n)
        | None -> None)
  in
  { events = n; failure }

let fingerprint_equivalence ?quiet_rounds ?(max_rounds = 60_000) ?window ~seed ~init ~domains
    graph =
  let per_domain =
    List.map
      (fun d ->
        let e = R.make_pengine ~seed ~init:(init :> Mdst_core.Run.init) ~domains:d graph in
        let stop = R.make_pstop ?quiet_rounds () in
        let o = R.Pengine.run e ~max_rounds ?window ~stop () in
        (d, o.R.Pengine.converged, Checker.fingerprint (R.Pengine.states e)))
      domains
  in
  let agree =
    match per_domain with
    | [] -> true
    | (_, c0, fp0) :: rest -> List.for_all (fun (_, c, fp) -> c = c0 && fp = fp0) rest
  in
  { per_domain; agree }
