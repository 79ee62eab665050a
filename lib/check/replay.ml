(* The one lockstep/adversity driver.  See replay.mli for the statement. *)

module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Model = Mdst_model.Model
module State = Mdst_core.State
module Msg = Mdst_core.Msg
module Projection = Mdst_core.Projection
module Checker = Mdst_core.Checker
module Node = Mdst_sim.Node
module Fault = Mdst_sim.Fault
module Prng = Mdst_util.Prng
module Mutation = Mdst_util.Mutation
module Fr = Mdst_baseline.Fr

type kind = Divergence | Closure | Adversity | Decoupling | Crash

let kind_to_string = function
  | Divergence -> "divergence"
  | Closure -> "closure"
  | Adversity -> "adversity"
  | Decoupling -> "decoupling"
  | Crash -> "crash"

type failure = { kind : kind; detail : string }

type budget = { settle_rounds : int; per_node_rounds : int; closure_rounds : int }

let default_budget = { settle_rounds = 4000; per_node_rounds = 250; closure_rounds = 80 }

type adversity = {
  converged : bool;
  rounds : int;
  last_fault_round : int;
  degree : int option;
  fr_degree : int;
  closure_ok : bool;
  stats : Fault.stats;
}

type verdict = {
  executed : Model.event list;
  fingerprints : int list;
  coarse : int list;
  states : State.t array;
  adversity : adversity option;
  failure : failure option;
}

(* Mutant "stop-check-race" removes the [faults_pending] conjunct,
   reopening the race it closes. *)
let stop_after_faults ~last_fault ~rounds ~faults_pending stop e =
  let held = stop e in
  held && rounds e > last_fault
  && (Mutation.enabled "stop-check-race" || not (faults_pending e))

let gap_bucket gap =
  if gap <= 4 then 0 else if gap <= 16 then 1 else if gap <= 64 then 2 else if gap <= 256 then 3 else 4

let msg_str m = Format.asprintf "%a" Msg.pp m

(* Explain a failed structural state compare. *)
let state_detail (real : State.t array) (model : State.t array) =
  match Projection.diff (Projection.of_states real) (Projection.of_states model) with
  | [] ->
      let v = ref 0 in
      while real.(!v) = model.(!v) do incr v done;
      Printf.sprintf "internal divergence: node %d state differs (projection equal)" !v
  | diffs ->
      "projection: "
      ^ String.concat "; " (List.map (fun (v, what) -> Printf.sprintf "node %d: %s" v what) diffs)

(* The engine's queue grouped per ordered channel; its arrival-time order
   is per-channel FIFO order. *)
let channels_of n in_flight =
  let chans = Array.make (n * n) [] in
  List.iter (fun (src, dst, m) -> chans.((src * n) + dst) <- m :: chans.((src * n) + dst)) in_flight;
  Array.map List.rev chans

type ran = Ran_tick of int | Ran_deliver of { src : int; dst : int; msg : Msg.t }

let replay ?(budget = default_budget) ?adaptive ?automaton (s : Scenario.t) =
  let (module A : Scenario.PROTO) =
    match automaton with Some a -> a | None -> Scenario.automaton s.variant
  in
  let last = ref None in
  let module Tap = struct
    include A

    let on_tick ctx st =
      last := Some (Ran_tick ctx.Node.node);
      A.on_tick ctx st

    let on_message ctx st ~src msg =
      last := Some (Ran_deliver { src; dst = ctx.Node.node; msg });
      A.on_message ctx st ~src msg
  end in
  let module R = Mdst_core.Run.Runner (Tap) in
  let module E = R.Engine in
  let g = s.graph in
  let n = Graph.n g in
  let create init = E.create ~seed:s.seed ~init g in
  let fps = ref [] and coarse = ref [] in
  let sample st =
    fps := Projection.fingerprint_states st :: !fps;
    coarse := Projection.fingerprint_coarse st :: !coarse
  in
  let verdict ?adversity ~executed engine failure =
    { executed; fingerprints = !fps; coarse = !coarse; states = E.states engine; adversity; failure }
  in
  match s.oracle with
  | Scenario.Decouple ->
      (* Victim sets and corrupted states come from split streams, so the
         states must agree whatever the [channels] flag; a corruption that
         draws from the engine stream couples them. *)
      let init = match s.init with `Random -> `Random | `Clean | `Legitimate -> `Clean in
      let e1 = create init and e2 = create init in
      let rng = Prng.create (s.seed lxor 0x7a3d) in
      let pulses = 2 + Prng.int rng 3 in
      let rec pulse p =
        if p >= pulses then None
        else begin
          let fraction = 0.25 +. Prng.float rng 0.75 in
          let ch = Prng.bool rng in
          ignore (E.corrupt e1 ~fraction ~channels:ch ());
          ignore (E.corrupt e2 ~fraction ~channels:(not ch) ());
          Mutation.probe (Printf.sprintf "fuzz:dc-pulse-%d" p);
          if E.states e1 <> E.states e2 then
            Some
              {
                kind = Decoupling;
                detail =
                  Printf.sprintf
                    "corrupt pulse %d (fraction %.2f): victim states depend on the channels flag"
                    p fraction;
              }
          else begin
            sample (E.states e1);
            pulse (p + 1)
          end
        end
      in
      verdict ~executed:[] e1 (pulse 0)
  | Scenario.Lockstep | Scenario.Converge _ ->
      let engine =
        match s.init with
        | `Clean -> create `Clean
        | `Random -> create `Random
        | `Legitimate ->
            let e = create `Clean in
            Array.iteri (E.set_state e) (Closure.legitimate_states g);
            e
      in
      (match s.oracle with
      | Scenario.Converge plan -> E.install_faults engine ~remap:Mdst_core.Transplant.states plan
      | Scenario.Lockstep | Scenario.Decouple -> ());
      let lockstep = s.oracle = Scenario.Lockstep in
      (* The model starts from the engine's post-init truth: same states,
         same queued messages (random-init corruption included). *)
      let model =
        ref
          (Model.make ~params:(Scenario.params s.variant) ~states:(E.states engine)
             ~in_flight:(E.in_flight engine) g)
      in
      (* One step of the schedule: [false] when the engine ran nothing. *)
      let total, step =
        let matches ev (c : E.choice) =
          match (ev, c) with
          | Model.Tick v, E.Choose_tick { node } -> node = v
          | Model.Deliver { src; dst }, E.Choose_deliver d -> d.src = src && d.dst = dst
          | _ -> false
        in
        let find ev options =
          let rec go k =
            if k >= Array.length options then -1 else if matches ev options.(k) then k else go (k + 1)
          in
          go 0
        in
        match (s.schedule, adaptive) with
        | Scenario.Natural k, _ -> (k, fun _ -> E.step engine)
        | Scenario.Events { events; steps }, None ->
            let sched = Array.of_list events in
            let len = Array.length sched in
            if len = 0 then failwith "Replay: empty schedule, nothing to replay";
            if steps > len then
              failwith
                (Printf.sprintf
                   "Replay: schedule exhausted: steps=%d but only %d events listed (the \
                    adaptive fallback is disabled in replay)"
                   steps len);
            let choose i options =
              let k = find sched.(i) options in
              if k < 0 then
                failwith
                  (Printf.sprintf
                     "Replay: step %d: scheduled event %s is not eligible (tick not armed, or \
                      channel empty or purged)"
                     i (Model.event_to_string sched.(i)));
              k
            in
            (len, fun i -> E.step_with engine ~choose:(choose i))
        | Scenario.Events { events; steps }, Some rng ->
            let sched = Array.of_list events in
            let cursor = ref 0 in
            let rec scan j options =
              if j >= Array.length sched then None
              else
                let k = find sched.(j) options in
                if k >= 0 then Some (j, k) else scan (j + 1) options
            in
            let choose options =
              match scan !cursor options with
              | Some (j, k) ->
                  cursor := j + 1;
                  k
              | None -> Prng.int rng (Array.length options)
            in
            (max (Array.length sched) steps, fun _ -> E.step_with engine ~choose)
      in
      let ctxs = Closure.contexts g in
      let executed = ref [] and failure = ref None in
      let was_legit = ref (Checker.legitimate g !model.Model.nodes) in
      let fail kind fmt = Printf.ksprintf (fun detail -> failure := Some { kind; detail }) fmt in
      let check i ran ev =
        let at () = Printf.sprintf "event %d (%s)" (i + 1) (Model.event_to_string ev) in
        match ran with
        | Ran_deliver { src; dst; msg } when Model.peek !model ~src ~dst <> Some msg ->
            fail Divergence "%s: channel-head mismatch on %d->%d: engine delivered %s, model head %s"
              (at ()) src dst (msg_str msg)
              (match Model.peek !model ~src ~dst with None -> "(empty)" | Some m -> msg_str m)
        | _ ->
            let before = !model in
            model := Model.step before ev;
            let st = E.states engine and mst = !model.Model.nodes in
            if st <> mst then fail Divergence "%s: %s" (at ()) (state_detail st mst)
            else begin
              sample st;
              (* Closure: the premise is only evaluated on the configuration
                 before a step that left legitimacy. *)
              let legit = Checker.legitimate g mst in
              if
                !was_legit && (not legit)
                && Closure.premise ctxs g before.Model.nodes before.Model.channels
              then
                fail Closure
                  "%s: a configuration satisfying the closure premise stepped to an illegitimate one"
                  (at ());
              was_legit := legit
            end
      in
      let i = ref 0 in
      while !i < total && !failure = None do
        last := None;
        (match (step !i, !last) with
        | true, Some ran ->
            let ev =
              match ran with
              | Ran_tick v -> Model.Tick v
              | Ran_deliver { src; dst; _ } -> Model.Deliver { src; dst }
            in
            executed := ev :: !executed;
            if lockstep then check !i ran ev else if !i land 3 = 0 then sample (E.states engine)
        | _ -> i := total);
        incr i
      done;
      let executed = List.rev !executed in
      if lockstep && !failure = None then begin
        let chans = channels_of n (E.in_flight engine) in
        let mchans = !model.Model.channels in
        match List.find_opt (fun k -> chans.(k) <> mchans.(k)) (List.init (n * n) Fun.id) with
        | None -> ()
        | Some k ->
            let show l = "[" ^ String.concat ", " (List.map msg_str l) ^ "]" in
            fail Divergence "end of schedule: in-flight mismatch on %d->%d: engine %s, model %s"
              (k / n) (k mod n) (show chans.(k)) (show mchans.(k))
      end;
      match s.oracle with
      | Scenario.Converge plan when !failure = None ->
          let last_fault = Fault.last_fault_round plan in
          let max_rounds = last_fault + budget.settle_rounds + (budget.per_node_rounds * n) in
          let stop =
            stop_after_faults ~last_fault ~rounds:E.rounds ~faults_pending:E.faults_pending
              (R.make_stop ~fixpoint:(fun tree -> not (Fr.improvable tree)) ())
          in
          let outcome = E.run engine ~max_rounds ~check_every:2 ~stop () in
          Mutation.probe (Printf.sprintf "fuzz:adv-gap-%d" (gap_bucket (outcome.E.rounds - last_fault)));
          Mutation.probe_n "fuzz:adv-faults" (Fault.total (E.fault_stats engine));
          (* A sound stop waits for [not (faults_pending e)]: work still
             outstanding here means the stop check raced the adversary. *)
          let pending = outcome.E.converged && E.faults_pending engine in
          let final_graph = E.graph engine in
          let degree = Checker.tree_degree_now final_graph (E.states engine) in
          let fr_degree = Tree.max_degree (Fr.approx_mdst final_graph) in
          let closure_ok =
            (not outcome.E.converged)
            || begin
                 (* Closure: nothing fingerprinted may move once legitimate —
                    the protocol keeps gossiping and searching, but no swap
                    may commit any more. *)
                 if not pending then Mutation.probe "fuzz:adv-converged";
                 let fp = Checker.fingerprint (E.states engine) in
                 ignore
                   (E.run engine
                      ~max_rounds:(E.rounds engine + budget.closure_rounds)
                      ~check_every:4
                      ~stop:(fun _ -> false)
                      ());
                 Checker.fingerprint (E.states engine) = fp
                 && Checker.legitimate (E.graph engine) (E.states engine)
               end
          in
          let stats = E.fault_stats engine in
          let report =
            {
              converged = outcome.E.converged;
              rounds = outcome.E.rounds;
              last_fault_round = last_fault;
              degree;
              fr_degree;
              closure_ok;
              stats;
            }
          in
          if not outcome.E.converged then
            fail Adversity
              "no convergence: still illegitimate or improvable %d rounds after the last fault \
               (round %d; faults applied: %s)"
              (outcome.E.rounds - last_fault) last_fault
              (Format.asprintf "%a" Fault.pp_stats stats)
          else if pending then
            fail Adversity
              "convergence declared at round %d with adversarial work still outstanding \
               (tampered message in flight or scheduled fault pending)"
              outcome.E.rounds
          else if not closure_ok then
            fail Adversity "closure violated: fingerprint or legitimacy changed after convergence"
          else begin
            match degree with
            | None -> fail Adversity "converged but no tree extractable"
            | Some d when d > fr_degree + 1 ->
                fail Adversity "degree bound violated: deg(T) = %d > deg_FR + 1 = %d" d
                  (fr_degree + 1)
            | Some _ -> ()
          end;
          verdict ~adversity:report ~executed engine !failure
      | _ -> verdict ~executed engine !failure

let prop ?budget s =
  match (replay ?budget s).failure with None -> Ok () | Some f -> Error f.detail
