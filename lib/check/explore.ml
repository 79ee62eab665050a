(* Bounded schedule exploration.  See explore.mli for the statement.

   The DFS carries one canonical configuration (the model's) and, for every
   transition, steps it twice: once through the real protocol handlers
   (driven directly, with hand-built contexts — the handlers are
   deterministic and never touch ctx.rng / ctx.now, which the conformance
   property verifies continuously) and once through the reference model.
   Equal results let the search continue on either; unequal results are a
   conformance violation with the full event path as reproducer. *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model
module Node = Mdst_sim.Node
module State = Mdst_core.State
module Msg = Mdst_core.Msg
module Checker = Mdst_core.Checker
module Projection = Mdst_core.Projection
module Prng = Mdst_util.Prng

type init = [ `Clean | `Random of int | `Legitimate ]

type stats = {
  configs : int;
  transitions : int;
  max_depth_reached : int;
  truncated : bool;
}

type kind = Conformance_divergence | Closure_violation

type violation = { kind : kind; path : string; detail : string; scenario : Scenario.t option }

let pp_violation ppf v =
  Format.fprintf ppf "%s after [%s]: %s"
    (match v.kind with
    | Conformance_divergence -> "conformance divergence"
    | Closure_violation -> "closure violation")
    v.path v.detail;
  Option.iter
    (fun s -> Format.fprintf ppf "@\n  reproduce: mdst_sim replay '%s'" (Scenario.to_string s))
    v.scenario

(* ---------------- the explorer ---------------- *)

module Search (A : Scenario.PROTO) = struct
  let make_ctxs graph outbox =
    let n = Graph.n graph in
    Array.init n (fun v ->
        let nbrs = Array.copy (Graph.neighbors graph v) in
        Node.make_ctx ~node:v ~id:(Graph.id graph v) ~n ~neighbors:nbrs
          ~neighbor_ids:(Array.map (Graph.id graph) nbrs)
          ~send:(fun dst msg -> outbox := (v, dst, msg) :: !outbox)
          ())

  let initial ctxs ~params ~init graph =
    let n = Graph.n graph in
    let nodes, channels =
      match init with
      | `Clean -> (Array.init n (fun v -> A.init ctxs.(v)), Array.make (n * n) [])
      | `Legitimate -> (Closure.legitimate_with ctxs graph, Array.make (n * n) [])
      | `Random seed ->
          let rng = Prng.create seed in
          let nodes = Array.init n (fun v -> A.random_state ctxs.(v) (Prng.split rng)) in
          let channels = Array.make (n * n) [] in
          for u = 0 to n - 1 do
            Array.iter
              (fun v ->
                let k = Prng.int rng 3 in
                channels.((u * n) + v) <-
                  List.filter_map
                    (fun _ -> A.random_msg ctxs.(u) (Prng.split rng))
                    (List.init k Fun.id))
              (Graph.neighbors graph u)
          done;
          (nodes, channels)
    in
    { Model.graph; params; nodes; channels }

  (* The same event through the real handlers. *)
  let real_step ctxs outbox n (m : Model.config) ev =
    outbox := [];
    let nodes = Array.copy m.Model.nodes in
    let channels = Array.copy m.Model.channels in
    (match ev with
    | Model.Tick v -> nodes.(v) <- A.on_tick ctxs.(v) nodes.(v)
    | Model.Deliver { src; dst } -> (
        let k = (src * n) + dst in
        match channels.(k) with
        | [] -> invalid_arg "Explore.real_step: empty channel"
        | msg :: rest ->
            channels.(k) <- rest;
            nodes.(dst) <- A.on_message ctxs.(dst) nodes.(dst) ~src msg));
    List.iter
      (fun (sender, dst, msg) ->
        let k = (sender * n) + dst in
        channels.(k) <- channels.(k) @ [ msg ])
      (List.rev !outbox);
    (nodes, channels)

  let mismatch_detail n (rn, rc) (m' : Model.config) =
    let v = ref (-1) in
    Array.iteri (fun i s -> if !v < 0 && s <> m'.Model.nodes.(i) then v := i) rn;
    if !v >= 0 then
      Printf.sprintf "node %d: real handlers and model disagree" !v
    else begin
      let k = ref (-1) in
      Array.iteri (fun i l -> if !k < 0 && l <> m'.Model.channels.(i) then k := i) rc;
      if !k >= 0 then
        Printf.sprintf "channel %d->%d: real handlers and model disagree" (!k / n)
          (!k mod n)
      else "no difference located (internal error)"
    end

  let enabled n (m : Model.config) =
    let delivers = ref [] in
    Array.iteri
      (fun k l ->
        if l <> [] then
          delivers := Model.Deliver { src = k / n; dst = k mod n } :: !delivers)
      m.Model.channels;
    List.rev !delivers @ List.init n (fun v -> Model.Tick v)

  let dfs ~max_depth ~max_configs ~params ~init graph =
    let n = Graph.n graph in
    let outbox = ref [] in
    let ctxs = make_ctxs graph outbox in
    let m0 = initial ctxs ~params ~init graph in
    let visited : (int, (State.t array * Msg.t list array) list) Hashtbl.t =
      Hashtbl.create 1024
    in
    let configs = ref 0
    and transitions = ref 0
    and max_depth_reached = ref 0
    and truncated = ref false
    and violation = ref None in
    let seen (m : Model.config) =
      (* The quiescence fingerprint alone is a terrible key here: every
         configuration reachable from a legitimate one shares it, collapsing
         the table into one bucket.  Folding in a deep generic hash of the
         full configuration keeps buckets short; the bucket's full
         structural comparison is what makes the visited set sound either
         way. *)
      let fp =
        Projection.fingerprint_states m.Model.nodes
        lxor Hashtbl.hash_param 500 4000 (m.Model.nodes, m.Model.channels)
      in
      let bucket = try Hashtbl.find visited fp with Not_found -> [] in
      if
        List.exists
          (fun (s, c) -> s = m.Model.nodes && c = m.Model.channels)
          bucket
      then true
      else begin
        Hashtbl.replace visited fp ((m.Model.nodes, m.Model.channels) :: bucket);
        false
      end
    in
    let rec expand m depth path =
      if !violation <> None || seen m then ()
      else if !configs >= max_configs then truncated := true
      else begin
        incr configs;
        if depth > !max_depth_reached then max_depth_reached := depth;
        if depth >= max_depth then truncated := true
        else
          let prem = Closure.premise ctxs graph m.Model.nodes m.Model.channels in
          List.iter
            (fun ev ->
              if !violation = None then begin
                incr transitions;
                let m' = Model.step m ev in
                let (rn, rc) = real_step ctxs outbox n m ev in
                let path' = List.rev (Model.event_to_string ev :: path) in
                if not (rn = m'.Model.nodes && rc = m'.Model.channels) then
                  violation :=
                    Some
                      {
                        kind = Conformance_divergence;
                        path = String.concat "," path';
                        detail = mismatch_detail n (rn, rc) m';
                        scenario = None;
                      }
                else if prem && not (Checker.legitimate graph m'.Model.nodes)
                then
                  violation :=
                    Some
                      {
                        kind = Closure_violation;
                        path = String.concat "," path';
                        detail =
                          "legitimate configuration stepped to an illegitimate one";
                        scenario = None;
                      }
                else expand m' (depth + 1) (Model.event_to_string ev :: path)
              end)
            (enabled n m)
      end
    in
    expand m0 0 [];
    ( {
        configs = !configs;
        transitions = !transitions;
        max_depth_reached = !max_depth_reached;
        truncated = !truncated;
      },
      !violation )

end

let dfs ?(max_depth = 10) ?(max_configs = 20_000) ~variant ~init graph =
  let module X = Search ((val Scenario.automaton variant)) in
  let stats, vio = X.dfs ~max_depth ~max_configs ~params:(Scenario.params variant) ~init graph in
  (* From a clean or legitimate start the engine holds the same
     configuration the search began with, so the path replays strictly. *)
  let scenario (v : violation) init =
    let events = List.map Model.event_of_string (String.split_on_char ',' v.path) in
    {
      Scenario.variant;
      init;
      graph;
      seed = 0;
      oracle = Scenario.Lockstep;
      schedule = Scenario.Events { events; steps = List.length events };
    }
  in
  ( stats,
    Option.map
      (fun v ->
        match init with
        | (`Clean | `Legitimate) as i -> { v with scenario = Some (scenario v i) }
        | `Random _ -> v)
      vio )

(* ---------------- random lockstep walk ---------------- *)

let walk ?(steps = 500) ~variant ~seed ~init graph =
  let s =
    {
      Scenario.variant;
      init = (init :> Scenario.init);
      graph;
      seed;
      oracle = Scenario.Lockstep;
      schedule = Scenario.Events { events = []; steps };
    }
  in
  let v = Replay.replay ~adaptive:(Prng.create (seed lxor 0x9e3f)) s in
  let ran = List.length v.Replay.executed in
  match v.Replay.failure with
  | None -> Ok ran
  | Some f ->
      let strict = { s with schedule = Scenario.Events { events = v.Replay.executed; steps = ran } } in
      Error (Printf.sprintf "%s\n  reproduce: mdst_sim replay '%s'" f.Replay.detail (Scenario.to_string strict))
