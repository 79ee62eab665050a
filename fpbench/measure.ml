(* Driving the program on a batch, checking every outcome, and the
   isolated engine and substrate timings.

   The program is reached only through its public entry points:
   [Run.Runner]'s make_engine / make_pengine / make_stop / make_pstop /
   snapshot, [Checker], [Fr] and [Exp_common.within_bound]. *)

module Run = Mdst_core.Run
module Checker = Mdst_core.Checker
module Fr = Mdst_baseline.Fr
module Tree = Mdst_graph.Tree
module Graph = Mdst_graph.Graph
module Exp_common = Mdst_analysis.Exp_common

let now_ns = Timed.now_ns

(* The stop rule's oracle: only an FR fixpoint is the state the paper
   guarantees.  A quiet spell on an improvable tree is not convergence. *)
let oracle tree = not (Fr.improvable tree)

type outcome = {
  result : Run.result;
  fingerprint : int;
  run_ns : int;  (** host time from the start of the run to the verified stop *)
  alloc_bytes : float;
  heap_bytes : float;  (** major heap after a full collection at the verified stop, engine live *)
  minor : int;
  major : int;
  events : int;  (** executed events, sharded engine only (else 0) *)
  verified : bool;  (** stopped, legitimate, FR fixpoint, within Δ*+1 *)
  unsound : bool;  (** stopped, yet failed an independent check *)
}

(* Independent check of a stopped run: nothing here trusts the stop rule.
   Δ* is solved exactly up to 20 nodes (the ER workloads); above that the
   reference is the FR bracket, so the bound checked is deg(FR)+1. *)
let verify (inst : Workload.instance) (r : Run.result) states =
  Checker.legitimate inst.graph states
  &&
  match r.tree with
  | Some t ->
      (not (Fr.improvable t))
      && Exp_common.within_bound ~degree:(Tree.max_degree t)
           (Exp_common.delta_star ~exact_limit:20 inst.graph)
  | None -> false

module Drive (A : Mdst_sim.Node.AUTOMATON with type state = Mdst_core.State.t and type msg = Mdst_core.Msg.t) =
struct
  module R = Run.Runner (A)

  type engine = Seq of R.Engine.t | Par of R.Pengine.t

  let create (w : Workload.t) ?(domains = w.domains) (inst : Workload.instance) =
    match domains with
    | None -> Seq (R.make_engine ~seed:inst.engine_seed ~init:w.init inst.graph)
    | Some domains -> Par (R.make_pengine ~seed:inst.engine_seed ~init:w.init ~domains inst.graph)

  (* One instance on a fresh engine, to its verified fixpoint.  With
     [traced], the per-layer counters are reset first; {!Timed.collect}
     reads them afterwards.  Every instance starts on a collected heap
     (untimed), so it pays for its own garbage and not for the last
     one's. *)
  let run_instance ~traced ?domains w (inst : Workload.instance) =
    Gc.full_major ();
    let engine = create w ?domains inst in
    if traced then Timed.reset ~n:(Graph.n inst.graph);
    let fixpoint = if traced then Timed.oracle oracle else oracle in
    let max_rounds = Run.default_max_rounds in
    let gc0 = Gc.quick_stat () in
    let t0 = now_ns () in
    let result, states, events =
      match engine with
      | Seq e ->
          let stop = R.make_stop ~fixpoint () in
          let stop = if traced then Timed.stop ~pending:R.Engine.pending_events ~rounds:R.Engine.rounds ~states:R.Engine.states stop else stop in
          let out = R.Engine.run e ~max_rounds ~check_every:2 ~stop () in
          (R.snapshot e ~converged:out.converged, R.Engine.states e, 0)
      | Par e ->
          let stop = R.make_pstop ~fixpoint () in
          let stop = if traced then Timed.stop ~pending:R.Pengine.pending_events ~rounds:R.Pengine.rounds ~states:R.Pengine.states stop else stop in
          let out = R.Pengine.run e ~max_rounds ~stop () in
          (R.psnapshot e ~converged:out.converged, R.Pengine.states e, R.Pengine.events e)
    in
    let run_ns = now_ns () - t0 in
    let gc1 = Gc.quick_stat () in
    (* The live heap, engine included: collected first (untimed), so the
       figure does not depend on where the instance ended in a GC cycle,
       which under the sharded engine varies with domain timing. *)
    Gc.full_major ();
    let heap_words = (Gc.quick_stat ()).heap_words in
    ignore (Sys.opaque_identity engine);
    let checked = result.converged && verify inst result states in
    {
      result;
      fingerprint = Checker.fingerprint states;
      run_ns;
      alloc_bytes =
        (gc1.minor_words +. gc1.major_words -. gc1.promoted_words
        -. (gc0.minor_words +. gc0.major_words -. gc0.promoted_words))
        *. float_of_int (Sys.word_size / 8);
      heap_bytes = float_of_int (heap_words * (Sys.word_size / 8));
      minor = gc1.minor_collections - gc0.minor_collections;
      major = gc1.major_collections - gc0.major_collections;
      events;
      verified = checked;
      unsound = result.converged && not checked;
    }
end

module Plain = Drive (Mdst_core.Proto.Default)
module Traced = Drive (Timed.Automaton (Mdst_core.Proto.Default))

(* Set-up: derive the batch and build its engines (discarded). *)
let setup_ns w ~seed ~seconds =
  let t0 = now_ns () in
  let batch = Workload.batch w ~seed ~seconds in
  List.iter (fun inst -> ignore (Plain.create w inst)) batch;
  (now_ns () - t0, batch)

(* The simulated statistics of one instance: identical on every repeat of
   the same code and seed. *)
type digest = { rounds : int; messages : int; bits : int; degree : int; fp : int }

let digest o =
  let r = o.result in
  {
    rounds = r.rounds;
    messages = r.total_messages;
    bits = r.total_bits;
    degree = Option.value ~default:(-1) r.degree;
    fp = o.fingerprint;
  }

let pp_digest i d =
  Printf.sprintf "i=%d rounds=%d messages=%d bits=%d degree=%d fingerprint=%d" i d.rounds
    d.messages d.bits d.degree d.fp

(* ---- Engine in isolation: the same event loop over a gossip-only
   automaton that does no protocol work. ---- *)

module Null = struct
  type state = unit
  type msg = unit

  let name = "null-gossip"
  let init _ = ()
  let random_state _ _ = ()
  let random_msg _ _ = None

  let on_tick (ctx : msg Mdst_sim.Node.ctx) () =
    for k = 0 to Array.length ctx.neighbors - 1 do
      ctx.send ctx.neighbors.(k) ()
    done

  let on_message _ () ~src:_ () = ()
  let msg_label () = "null"
  let msg_bits ~n:_ () = 1
  let state_bits ~n:_ () = 1
end

module Null_engine = Mdst_sim.Engine.Make (Null)

let null_ns_per_event ~seed graphs ~events =
  let per_graph = max 1 (events / List.length graphs) in
  let ns, steps =
    List.fold_left
      (fun (ns, steps) g ->
        let e = Null_engine.create ~seed g in
        let t0 = now_ns () in
        let k = ref 0 in
        while !k < per_graph && Null_engine.step e do incr k done;
        (ns + (now_ns () - t0), steps + !k))
      (0, 0) graphs
  in
  float_of_int ns /. float_of_int (max 1 steps)

(* ---- Machine speed. ---- *)

(* A fixed workload of the benchmark's own, sharing no code with the
   program: stdlib map inserts and a list sort, allocation-heavy like the
   simulator.  It starts on a freshly collected heap (untimed), so it pays
   only for its own garbage, never for the collection work the program
   leaves behind, which grows with what the program allocates and retains.
   The shared host this was built on runs up to 2x slower in spells of
   seconds, and this loop slows with the program; host times divided by
   it, timed next to them, are steady to a few percent.  It takes about
   [reference_nominal_ns] on that host when it is fast. *)
let reference_nominal_ns = 3_000_000.0

module Int_map = Map.Make (Int)

let reference_ns () =
  Gc.full_major ();
  let t0 = now_ns () in
  let m = ref Int_map.empty in
  for i = 0 to 10_000 do
    m := Int_map.add ((i * 7919) land 65535) i !m
  done;
  let l = List.sort compare (List.init 10_000 (fun i -> (i * 104729) land 65535)) in
  ignore (Sys.opaque_identity (Int_map.cardinal !m + List.length l));
  float_of_int (now_ns () - t0)

(* ---- Substrate micro timings, at the sizes the workloads reach. ---- *)

(* The summary of a per-instance quantity over a batch.  Convergence costs
   vary multiplicatively across schedules, with a heavy right tail; the
   geometric mean weighs every instance and no single one dominates it. *)
let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let time_per_op ~ops f =
  Mdst_analysis.Stats.median
    (List.init 5 (fun _ ->
         let t0 = now_ns () in
         f ();
         float_of_int (now_ns () - t0) /. float_of_int ops))

module Heap = Mdst_util.Heap
module Prng = Mdst_util.Prng
module Intset = Mdst_util.Intset

(* One event-loop step's heap work: pop the earliest event, push one a
   latency later, on a heap holding [size] events. *)
let heap_push_pop_ns ~size =
  let rng = Prng.create 1 in
  let h = Heap.create () in
  for i = 1 to max 1 size do Heap.push h ~prio:(Prng.float rng 2.0) i done;
  let incr = Array.init 4096 (fun _ -> 0.5 +. Prng.float rng 1.0) in
  let ops = 200_000 in
  time_per_op ~ops (fun () ->
      for k = 0 to ops - 1 do
        let p = Heap.top_prio h in
        let x = Heap.drop_min h in
        Heap.push h ~prio:(p +. incr.(k land 4095)) x
      done)

let prng_draw_ns () =
  let rng = Prng.create 2 in
  let ops = 1_000_000 in
  let acc = ref 0 in
  time_per_op ~ops (fun () ->
      for _ = 1 to ops do acc := !acc lxor Prng.raw53 rng done;
      ignore (Sys.opaque_identity !acc))

(* Search DFS visited sets grow to the node count. *)
let intset_add_ns ~n =
  let reps = max 1 (200_000 / n) in
  time_per_op ~ops:(reps * n) (fun () ->
      for _ = 1 to reps do
        let s = ref Intset.empty in
        for v = 0 to n - 1 do s := Intset.add ((v * 7919) mod n) !s done;
        ignore (Sys.opaque_identity !s)
      done)
