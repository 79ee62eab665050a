module Prng = Mdst_util.Prng
module Graph = Mdst_graph.Graph

module Make (A : Node.AUTOMATON) = struct
  type t = {
    graph : Graph.t;
    rng : Prng.t;
    states : A.state array;
    ctxs : A.msg Node.ctx array;
    (* inbox.(dst) holds (src, msg) pairs to deliver next round, FIFO. *)
    inbox : (int * A.msg) Queue.t array;
    outbox : (int * A.msg) Queue.t array;
    metrics : Metrics.t;
    mutable round_count : int;
  }

  type init =
    [ `Clean | `Random | `Custom of A.msg Node.ctx -> Prng.t -> A.state ]

  let make_ctx t i =
    let neighbors = Graph.neighbors t.graph i in
    Node.make_ctx ~node:i ~id:(Graph.id t.graph i) ~n:(Graph.n t.graph) ~neighbors
      ~neighbor_ids:(Array.map (Graph.id t.graph) neighbors)
      ~send:(fun dst msg ->
        if not (Graph.mem_edge t.graph i dst) then
          invalid_arg "Sync_engine: sending to non-neighbour";
        Metrics.record_send t.metrics ~label:(A.msg_label msg)
          ~bits:(A.msg_bits ~n:(Graph.n t.graph) msg);
        Queue.add (i, msg) t.outbox.(dst))
      ~note_suppressed:(fun k -> Metrics.record_suppressed t.metrics k)
      ~now:(fun () -> float_of_int t.round_count) ()

  let create ?(seed = 42) ?(init = `Clean) graph =
    let n = Graph.n graph in
    if n = 0 then invalid_arg "Sync_engine.create: empty graph";
    if not (Mdst_graph.Algo.is_connected graph) then
      invalid_arg "Sync_engine.create: graph must be connected";
    let rng = Prng.create seed in
    let t =
      {
        graph;
        rng;
        states = Array.make n (Obj.magic 0);
        ctxs = Array.make n (Obj.magic 0);
        inbox = Array.init n (fun _ -> Queue.create ());
        outbox = Array.init n (fun _ -> Queue.create ());
        metrics = Metrics.create ();
        round_count = 0;
      }
    in
    for i = 0 to n - 1 do
      let ctx = make_ctx t i in
      t.ctxs.(i) <- { ctx with Node.rng = Prng.split rng }
    done;
    for i = 0 to n - 1 do
      t.states.(i) <-
        (match init with
        | `Clean -> A.init t.ctxs.(i)
        | `Random -> A.random_state t.ctxs.(i) (Prng.split rng)
        | `Custom f -> f t.ctxs.(i) (Prng.split rng))
    done;
    (match init with
    | `Random ->
        (* Adversarial channel contents for the first round. *)
        Graph.iter_edges graph (fun u v ->
            (match A.random_msg t.ctxs.(u) rng with
            | Some m -> Queue.add (u, m) t.inbox.(v)
            | None -> ());
            match A.random_msg t.ctxs.(v) rng with
            | Some m -> Queue.add (v, m) t.inbox.(u)
            | None -> ())
    | `Clean | `Custom _ -> ());
    t

  let round t =
    let n = Graph.n t.graph in
    (* Phase 1: deliver everything queued from the previous round. *)
    for dst = 0 to n - 1 do
      while not (Queue.is_empty t.inbox.(dst)) do
        let src, msg = Queue.pop t.inbox.(dst) in
        Metrics.record_delivery t.metrics;
        t.states.(dst) <- A.on_message t.ctxs.(dst) t.states.(dst) ~src msg
      done
    done;
    (* Phase 2: every node ticks. *)
    for i = 0 to n - 1 do
      t.states.(i) <- A.on_tick t.ctxs.(i) t.states.(i);
      Metrics.record_state_bits t.metrics (A.state_bits ~n:(Graph.n t.graph) t.states.(i))
    done;
    (* Phase 3: sends of this round become next round's inboxes. *)
    for i = 0 to n - 1 do
      Queue.transfer t.outbox.(i) t.inbox.(i)
    done;
    t.round_count <- t.round_count + 1

  type outcome = { converged : bool; rounds : int }

  let run t ?(max_rounds = 100_000) ~stop () =
    let finished = ref (stop t) in
    while (not !finished) && t.round_count < max_rounds do
      round t;
      if stop t then finished := true
    done;
    { converged = stop t; rounds = t.round_count }

  let graph t = t.graph

  let states t = t.states

  let state t i = t.states.(i)

  let rounds t = t.round_count

  let metrics t = t.metrics

  let pending_messages t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.inbox

  let set_state t i s = t.states.(i) <- s

  let corrupt t ?(fraction = 1.0) () =
    let n = Graph.n t.graph in
    let k = max 1 (int_of_float (Float.round (fraction *. float_of_int n))) in
    let victims = Prng.sample_without_replacement t.rng (min k n) n in
    List.iter (fun i -> t.states.(i) <- A.random_state t.ctxs.(i) (Prng.split t.rng)) victims;
    List.length victims
end
