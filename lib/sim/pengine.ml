(* Sharded parallel discrete-event engine: conservative PDES over OCaml 5
   domains.

   The graph is partitioned into [k] node-shards ({!Mdst_graph.Partition});
   each shard owns the event heap, PRNG draws, metrics and FIFO floors of
   its nodes and runs on its own domain.  Cross-shard sends travel through
   bounded SPSC mailboxes ({!Mdst_util.Mailbox}); synchronisation is the
   classic conservative protocol with the null messages collapsed into one
   published clock per shard ({!Shard.Clocks}):

     - every latency model guarantees a positive minimum delay
       ([Latency.min_delay], the {e lookahead} d): a shard whose clock
       reads [P] cannot cause a delivery anywhere before [P + d];
     - a shard repeatedly (1) reads the clocks of the shards with an edge
       into it, taking the minimum [hmin], (2) drains its inboxes,
       (3) executes heap events strictly below
       [B = min (hmin + d) window_end], (4) publishes
       [min next_local_event (hmin + d)].

   The read -> drain -> execute -> publish order is what makes [B] sound:
   a message from shard [s'] timestamped below [hmin + d] was necessarily
   pushed before we read [s']'s clock (its sender executed below its
   published bound), so step (2) sees it.  Progress is the standard
   argument: the globally least published clock rises by at least [d] per
   round of passes, so the shard holding the globally next event always
   reaches a bound above it.

   Determinism is non-negotiable and rests on two mechanisms:

     - {b (time, shard, seq) total order}: every event carries the packed
       key of its creating shard and that shard's creation counter
       ({!Shard.key}); heaps tie-break on it ({!Mdst_util.Heap.push_at}),
       so the order is a property of the event, independent of when a
       drain happened to pull it out of a mailbox.  A fixed (seed, k) is
       bit-reproducible.
     - {b k-independent timestamps}: [create] replays the sequential
       {!Engine.create} draw-for-draw (same root stream: ctx splits, init
       states, `Random channel injection, tick phases), and post-create
       sends draw latency from per-node streams split off afterwards in
       node order.  Node [i]'s draws depend only on node [i]'s execution
       history, which depends only on event timestamps — so the full
       timestamped schedule is invariant in [k].  Runs with different
       shard counts execute the same events at the same virtual times and
       can only differ on cross-shard ties at {e exactly} equal float
       times (measure-zero under the stochastic latency models).

   Fault plans are supported for channel events only (drop / duplicate /
   reorder / corrupt): they are decided on the sending shard with the
   per-event private streams of {!Fault.rng_for}, so they parallelise for
   free.  Scheduled events (crash / cut / link) mutate the graph and the
   partition under every shard's feet and are rejected. *)

module Prng = Mdst_util.Prng
module Heap = Mdst_util.Heap
module Mailbox = Mdst_util.Mailbox
module Graph = Mdst_graph.Graph
module Partition = Mdst_graph.Partition

module Make (A : Node.AUTOMATON) = struct
  type tagged =
    | Tick of { node : int; tag : int }
    | Deliver of { src : int; dst : int; msg : A.msg; tag : int }

  type packet = { p_time : float; p_key : int; p_ev : tagged }

  type shard = {
    sid : int;
    heap : tagged Heap.t;
    mutable seq : int;  (* creation counter; feeds Shard.key *)
    mutable now : float;
    mutable current_tag : int;
    mutable rounds : int;
    mutable deliveries : int;
    mutable executed : int;
    metrics : Metrics.t;  (* per-shard: the hot path never contends *)
    in_shards : int array;  (* shards with a cut edge into us *)
    inboxes : packet Mailbox.t array;  (* slot s' = ring written by shard s' *)
    mutable sched : (float * int * int) list;  (* recording; reversed *)
    mutable fstats : Fault.stats;
    mutable tampered_until : float;
  }

  type faults = {
    by_channel : (int, (Fault.event * Prng.t) list) Hashtbl.t;
        (* Frozen after install_faults; concurrent find_opt on a
           non-resizing table is safe, and each ordered channel is only
           ever consulted by its source node's shard. *)
  }

  type t = {
    graph : Graph.t;
    latency : Latency.t;
    lat_uniform : bool;
    lat_lo : float;
    lat_span : float;
    tick_period : float;
    lookahead : float;  (* Latency.min_delay; must be > 0 *)
    rng : Prng.t;  (* root stream; only used by create *)
    k : int;
    part : int array;  (* node -> shard *)
    shards : shard array;
    clocks : Shard.Clocks.t;
    states : A.state array;
    ctxs : A.msg Node.ctx array;
    lat_rngs : Prng.t array;
        (* Per-node latency streams, split from the root AFTER create's
           draws: timestamps depend on (seed, node history), never on k. *)
    fifo_floor : float array array;
        (* fifo_floor.(src) is written only by shard part.(src). *)
    recording : bool;
    mutable running : bool;  (* inside run_window: route sends via mailboxes *)
    mutable horizon : float;  (* virtual time the run is complete up to *)
    mutable poisoned : bool;  (* a window died; the state is not trustworthy *)
    mutable faults : faults option;
    abort : bool Atomic.t;
    done_count : int Atomic.t;
    failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  }

  type init =
    [ `Clean
    | `Random
    | `Custom of A.msg Node.ctx -> Prng.t -> A.state ]

  exception Aborted
  (* Internal: a peer shard failed; unwind this worker quietly. *)

  (* Must equal Engine's constant — the conformance replay would flag a
     drift as a FIFO/timestamp mismatch. *)
  let fifo_epsilon = Engine.fifo_epsilon

  let slot_in graph src dst =
    let nbs = Graph.neighbors graph src in
    let lo = ref 0 and hi = ref (Array.length nbs - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let v = Array.unsafe_get nbs mid in
      if v = dst then found := mid else if v < dst then lo := mid + 1 else hi := mid - 1
    done;
    if !found < 0 then
      invalid_arg (Printf.sprintf "Pengine: %d -> %d is not a channel" src dst);
    !found

  let drain_inboxes sh =
    let got = ref false in
    Array.iter
      (fun s' ->
        let mb = sh.inboxes.(s') in
        let more = ref true in
        while !more do
          match Mailbox.try_pop mb with
          | Some pkt ->
              got := true;
              Heap.push_at sh.heap ~prio:pkt.p_time ~seq:pkt.p_key pkt.p_ev
          | None -> more := false
        done)
      sh.in_shards;
    !got

  (* Backpressure without deadlock: while the receiver's ring is full we
     drain our OWN inboxes (so a peer blocked pushing to us can advance)
     and retry.  Drained events only enter the heap — everything arriving
     now is timestamped at or above our current execution bound, so the
     insertion cannot disturb an execution pass in progress. *)
  let push_remote t sh ds pkt =
    let mb = t.shards.(ds).inboxes.(sh.sid) in
    if not (Mailbox.try_push mb pkt) then begin
      let n = ref 0 in
      while not (Mailbox.try_push mb pkt) do
        if Atomic.get t.abort then raise Aborted;
        ignore (drain_inboxes sh);
        Shard.backoff !n;
        incr n
      done
    end

  (* Mirrors Engine.enqueue_raw, with the sending shard explicit.  The
     latency stream defaults to the per-node split of [src]; create and
     fault primitives pass their own. *)
  let enqueue_raw t sh ?extra_delay ?rng ~src ~dst msg =
    let rng = match rng with Some r -> r | None -> t.lat_rngs.(src) in
    let lat =
      if t.lat_uniform then
        t.lat_lo +. (t.lat_span *. (float_of_int (Prng.raw53 rng) /. 9007199254740992.0))
      else Latency.sample t.latency rng ~src ~dst
    in
    let arrival =
      match extra_delay with
      | None ->
          let floors = t.fifo_floor.(src) in
          let k = slot_in t.graph src dst in
          let a = max (sh.now +. lat) (floors.(k) +. fifo_epsilon) in
          floors.(k) <- a;
          a
      | Some d -> sh.now +. lat +. d
    in
    Metrics.record_send sh.metrics ~label:(A.msg_label msg)
      ~bits:(A.msg_bits ~n:(Graph.n t.graph) msg);
    let key = Shard.key ~shard:sh.sid ~seq:sh.seq in
    sh.seq <- sh.seq + 1;
    let ev = Deliver { src; dst; msg; tag = sh.current_tag + 1 } in
    let ds = t.part.(dst) in
    if ds = sh.sid then Heap.push_at sh.heap ~prio:arrival ~seq:key ev
    else if t.running then push_remote t sh ds { p_time = arrival; p_key = key; p_ev = ev }
    else
      (* create / between windows: single-threaded, push straight in. *)
      Heap.push_at t.shards.(ds).heap ~prio:arrival ~seq:key ev;
    arrival

  let in_window (w : Fault.window) round = w.from_round <= round && round <= w.upto_round

  (* Engine.enqueue's channel-fault gate, decided on the sending shard
     with that shard's stats and the event's private stream.  [round] is
     the sender shard's causal round — the parallel engine has no global
     round while a window runs. *)
  let enqueue ?rng t sh ~src ~dst msg =
    let mark arrival = if arrival > sh.tampered_until then sh.tampered_until <- arrival in
    let tamper events =
      let rec decide = function
        | [] -> ignore (enqueue_raw t sh ?rng ~src ~dst msg)
        | (ev, erng) :: rest -> (
            match (ev : Fault.event) with
            | Drop f when in_window f.window sh.rounds && Prng.bernoulli erng f.prob ->
                sh.fstats <- { sh.fstats with Fault.drops = sh.fstats.Fault.drops + 1 }
            | Duplicate f when in_window f.window sh.rounds && Prng.bernoulli erng f.prob ->
                sh.fstats <-
                  { sh.fstats with Fault.duplicates = sh.fstats.Fault.duplicates + 1 };
                for _ = 0 to f.copies do
                  mark (enqueue_raw t sh ?rng ~src ~dst msg)
                done
            | Reorder f when in_window f.window sh.rounds && Prng.bernoulli erng f.prob ->
                sh.fstats <- { sh.fstats with Fault.reorders = sh.fstats.Fault.reorders + 1 };
                mark (enqueue_raw t sh ~extra_delay:(Prng.float erng f.delay) ?rng ~src ~dst msg)
            | Corrupt f when in_window f.window sh.rounds && Prng.bernoulli erng f.prob -> (
                match A.random_msg t.ctxs.(src) erng with
                | Some msg' ->
                    sh.fstats <-
                      { sh.fstats with Fault.corruptions = sh.fstats.Fault.corruptions + 1 };
                    mark (enqueue_raw t sh ?rng ~src ~dst msg')
                | None -> decide rest)
            | _ -> decide rest)
      in
      decide events
    in
    match t.faults with
    | None -> ignore (enqueue_raw t sh ?rng ~src ~dst msg)
    | Some fs -> (
        match Hashtbl.find_opt fs.by_channel ((src * Graph.n t.graph) + dst) with
        | None -> ignore (enqueue_raw t sh ?rng ~src ~dst msg)
        | Some events -> tamper events)

  let make_ctx t i =
    let sh = t.shards.(t.part.(i)) in
    let neighbors = Graph.neighbors t.graph i in
    (* rng: the default is replaced below *)
    Node.make_ctx ~node:i ~id:(Graph.id t.graph i) ~n:(Graph.n t.graph) ~neighbors
      ~neighbor_ids:(Array.map (Graph.id t.graph) neighbors)
      ~send:(fun dst msg ->
        if not (Graph.mem_edge t.graph i dst) then
          invalid_arg (Printf.sprintf "Pengine: node %d sending to non-neighbour %d" i dst);
        enqueue t sh ~src:i ~dst msg)
      ~note_suppressed:(fun k -> Metrics.record_suppressed sh.metrics k)
      ~now:(fun () -> sh.now) ()

  let fresh_floors graph =
    Array.init (Graph.n graph) (fun u -> Array.make (Graph.degree graph u) neg_infinity)

  let create ?(latency = Latency.uniform ()) ?(tick_period = 1.0) ?(seed = 42)
      ?(init = `Clean) ?(record = false) ?partition ~domains graph =
    let n = Graph.n graph in
    if n = 0 then invalid_arg "Pengine.create: empty graph";
    if domains <= 0 then invalid_arg "Pengine.create: domains must be positive";
    if domains > Shard.max_shards then
      invalid_arg
        (Printf.sprintf "Pengine.create: at most %d shards (key encoding)" Shard.max_shards);
    if not (Mdst_graph.Algo.is_connected graph) then
      invalid_arg "Pengine.create: graph must be connected";
    let lookahead = Latency.min_delay latency in
    if not (lookahead > 0.0) then
      invalid_arg "Pengine.create: latency model must declare a positive min_delay";
    let k = domains in
    let part =
      match partition with
      | Some p ->
          if not (Partition.validate graph p ~parts:k) then
            invalid_arg "Pengine.create: partition does not match graph/domains";
          Array.copy p
      | None -> Partition.blocks graph ~parts:k
    in
    let rng = Prng.create seed in
    let lat_lo, lat_span, lat_uniform =
      match Latency.uniform_params latency with
      | Some (lo, hi) -> (lo, hi -. lo, true)
      | None -> (0.0, 0.0, false)
    in
    let in_shards = Shard.in_shards graph part ~k in
    let shards =
      Array.init k (fun s ->
          {
            sid = s;
            heap = Heap.create ~capacity:(max 16 (4 * n / k)) ();
            seq = 0;
            now = 0.0;
            current_tag = 0;
            rounds = 0;
            deliveries = 0;
            executed = 0;
            metrics = Metrics.create ();
            in_shards = in_shards.(s);
            inboxes = Array.init k (fun _ -> Mailbox.create ~capacity:256 ());
            sched = [];
            fstats = Fault.zero_stats;
            tampered_until = neg_infinity;
          })
    in
    let t =
      {
        graph;
        latency;
        lat_uniform;
        lat_lo;
        lat_span;
        tick_period;
        lookahead;
        rng;
        k;
        part;
        shards;
        clocks = Shard.Clocks.create k;
        states = Array.make n (Obj.magic 0);
        ctxs = Array.make n (Obj.magic 0);
        lat_rngs = Array.make n rng (* replaced below *);
        fifo_floor = fresh_floors graph;
        recording = record;
        running = false;
        horizon = 0.0;
        poisoned = false;
        faults = None;
        abort = Atomic.make false;
        done_count = Atomic.make 0;
        failure = Atomic.make None;
      }
    in
    (* From here to the tick arming this is Engine.create draw-for-draw on
       the same root stream: identical ctx streams, initial states and
       event timestamps for every (seed, init), whatever [k] is. *)
    for i = 0 to n - 1 do
      let ctx = make_ctx t i in
      t.ctxs.(i) <- { ctx with Node.rng = Prng.split rng }
    done;
    for i = 0 to n - 1 do
      let state =
        match init with
        | `Clean -> A.init t.ctxs.(i)
        | `Random -> A.random_state t.ctxs.(i) (Prng.split rng)
        | `Custom f -> f t.ctxs.(i) (Prng.split rng)
      in
      t.states.(i) <- state
    done;
    (match init with
    | `Random ->
        Graph.iter_edges graph (fun u v ->
            let inject_on src dst =
              let c = Prng.int rng 3 in
              for _ = 1 to c do
                match A.random_msg t.ctxs.(src) rng with
                | Some msg -> enqueue ~rng t t.shards.(part.(src)) ~src ~dst msg
                | None -> ()
              done
            in
            inject_on u v;
            inject_on v u)
    | `Clean | `Custom _ -> ());
    for i = 0 to n - 1 do
      let sh = t.shards.(part.(i)) in
      let key = Shard.key ~shard:sh.sid ~seq:sh.seq in
      sh.seq <- sh.seq + 1;
      Heap.push_at sh.heap ~prio:(Prng.float rng tick_period) ~seq:key
        (Tick { node = i; tag = 1 })
    done;
    (* Post-create latency streams, split in node order AFTER the draws
       above so the prefix stays bit-identical with Engine.create. *)
    for i = 0 to n - 1 do
      t.lat_rngs.(i) <- Prng.split rng
    done;
    t

  (* ---------------------------------------------------------------- *)
  (* Execution. *)

  let execute t sh time key ev =
    if time > sh.now then sh.now <- time;
    let tag = match ev with Tick { tag; _ } | Deliver { tag; _ } -> tag in
    sh.current_tag <- tag;
    if tag > sh.rounds then sh.rounds <- tag;
    sh.executed <- sh.executed + 1;
    if t.recording then
      sh.sched <-
        (match ev with
        | Tick { node; _ } -> (time, key, -node - 1)
        | Deliver { src; dst; _ } -> (time, key, (src * Graph.n t.graph) + dst))
        :: sh.sched;
    match ev with
    | Tick { node = i; _ } ->
        t.states.(i) <- A.on_tick t.ctxs.(i) t.states.(i);
        Metrics.record_state_bits sh.metrics (A.state_bits ~n:(Graph.n t.graph) t.states.(i));
        let key' = Shard.key ~shard:sh.sid ~seq:sh.seq in
        sh.seq <- sh.seq + 1;
        Heap.push_at sh.heap ~prio:(sh.now +. t.tick_period) ~seq:key'
          (Tick { node = i; tag = tag + 1 })
    | Deliver { src; dst; msg; _ } ->
        sh.deliveries <- sh.deliveries + 1;
        Metrics.record_delivery sh.metrics;
        t.states.(dst) <- A.on_message t.ctxs.(dst) t.states.(dst) ~src msg

  (* One read -> drain -> execute -> publish pass; returns
     (made_progress, window_done). *)
  let shard_pass t sh ~until =
    let hmin = ref infinity in
    Array.iter
      (fun s' ->
        let c = Shard.Clocks.get t.clocks s' in
        if c < !hmin then hmin := c)
      sh.in_shards;
    ignore (drain_inboxes sh);
    let bound = Float.min (!hmin +. t.lookahead) until in
    let progressed = ref false in
    while (not (Heap.is_empty sh.heap)) && Heap.top_prio sh.heap < bound do
      let time = Heap.top_prio sh.heap in
      let key = Heap.top_seq sh.heap in
      let ev = Heap.drop_min sh.heap in
      execute t sh time key ev;
      progressed := true
    done;
    let next_local = if Heap.is_empty sh.heap then infinity else Heap.top_prio sh.heap in
    Shard.Clocks.advance t.clocks sh.sid (Float.min next_local (!hmin +. t.lookahead));
    (!progressed, next_local >= until && !hmin +. t.lookahead >= until)

  let record_failure t e bt =
    ignore (Atomic.compare_and_set t.failure None (Some (e, bt)));
    Atomic.set t.abort true

  (* A whole shard-window on the calling domain.  After its own horizon
     closes, a shard keeps servicing its inboxes until every shard is done
     — a peer may still be pushing next-window traffic at us, and an
     abandoned full ring would block it forever. *)
  let worker t ~until s =
    let sh = t.shards.(s) in
    (try
       let idle = ref 0 in
       let running = ref true in
       while !running do
         if Atomic.get t.abort then raise Aborted;
         let progressed, done_ = shard_pass t sh ~until in
         if done_ then running := false
         else if progressed then idle := 0
         else begin
           incr idle;
           Shard.backoff !idle
         end
       done
     with
    | Aborted -> Shard.Clocks.infinity_ t.clocks sh.sid
    | e ->
        record_failure t e (Printexc.get_raw_backtrace ());
        Shard.Clocks.infinity_ t.clocks sh.sid);
    Atomic.incr t.done_count;
    let idle = ref 0 in
    while Atomic.get t.done_count < t.k && not (Atomic.get t.abort) do
      if drain_inboxes sh then idle := 0 else incr idle;
      Shard.backoff !idle
    done

  let run_window t ~until =
    if t.poisoned then invalid_arg "Pengine.run_window: a previous window failed";
    if until > t.horizon then begin
      Atomic.set t.done_count 0;
      Atomic.set t.abort false;
      t.running <- true;
      let doms =
        Array.init (t.k - 1) (fun i -> Domain.spawn (fun () -> worker t ~until (i + 1)))
      in
      worker t ~until 0;
      Array.iter Domain.join doms;
      t.running <- false;
      match Atomic.get t.failure with
      | Some (e, bt) ->
          t.poisoned <- true;
          Printexc.raise_with_backtrace e bt
      | None -> t.horizon <- until
    end

  (* ---------------------------------------------------------------- *)
  (* Accessors (all single-threaded: call between windows only). *)

  let graph t = t.graph
  let domains t = t.k
  let partition t = t.part
  let lookahead t = t.lookahead
  let state t i = t.states.(i)
  let states t = t.states
  let now t = t.horizon
  let rounds t = Array.fold_left (fun acc sh -> max acc sh.rounds) 0 t.shards
  let deliveries t = Array.fold_left (fun acc sh -> acc + sh.deliveries) 0 t.shards
  let events t = Array.fold_left (fun acc sh -> acc + sh.executed) 0 t.shards

  let metrics t =
    let m = Metrics.create () in
    Array.iter (fun sh -> Metrics.merge_into ~into:m sh.metrics) t.shards;
    m

  let pending_events t =
    Array.fold_left
      (fun acc sh ->
        acc + Heap.length sh.heap
        + Array.fold_left (fun a mb -> a + Mailbox.length mb) 0 sh.inboxes)
      0 t.shards

  let in_flight t =
    Array.to_list t.shards
    |> List.concat_map (fun sh -> Heap.to_list sh.heap)
    |> List.filter_map (fun (prio, ev) ->
           match ev with
           | Deliver { src; dst; msg; _ } -> Some (prio, (src, dst, msg))
           | Tick _ -> None)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd

  (* ---------------------------------------------------------------- *)
  (* Faults. *)

  let install_faults t plan =
    let n = Graph.n t.graph in
    List.iter
      (fun ev ->
        match (ev : Fault.event) with
        | Crash _ | Cut _ | Link _ ->
            invalid_arg
              "Pengine.install_faults: scheduled events (crash/cut/link) need the \
               sequential engine"
        | Drop _ | Duplicate _ | Reorder _ | Corrupt _ -> ())
      plan.Fault.events;
    let by_channel = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        let src, dst =
          match (ev : Fault.event) with
          | Drop { src; dst; _ } | Duplicate { src; dst; _ } | Reorder { src; dst; _ }
          | Corrupt { src; dst; _ } ->
              (src, dst)
          | Crash _ | Cut _ | Link _ -> assert false
        in
        if src >= 0 && src < n && dst >= 0 && dst < n && src <> dst then begin
          let key = (src * n) + dst in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_channel key) in
          Hashtbl.replace by_channel key (prev @ [ (ev, Fault.rng_for plan ev) ])
        end)
      plan.Fault.events;
    t.faults <- Some { by_channel }

  let fault_stats t =
    Array.fold_left
      (fun (acc : Fault.stats) sh ->
        let s = sh.fstats in
        {
          Fault.drops = acc.Fault.drops + s.Fault.drops;
          duplicates = acc.Fault.duplicates + s.Fault.duplicates;
          reorders = acc.Fault.reorders + s.Fault.reorders;
          corruptions = acc.Fault.corruptions + s.Fault.corruptions;
          crashes = acc.Fault.crashes + s.Fault.crashes;
          cuts = acc.Fault.cuts + s.Fault.cuts;
          links = acc.Fault.links + s.Fault.links;
          skipped = acc.Fault.skipped + s.Fault.skipped;
        })
      Fault.zero_stats t.shards

  let faults_pending t =
    t.faults <> None
    && Array.exists (fun sh -> t.horizon <= sh.tampered_until) t.shards

  (* ---------------------------------------------------------------- *)
  (* Recorded schedule. *)

  type sched_event =
    | Sched_tick of { node : int }
    | Sched_deliver of { src : int; dst : int }

  let schedule t =
    if not t.recording then invalid_arg "Pengine.schedule: created without ~record:true";
    let n = Graph.n t.graph in
    let all =
      Array.concat
        (Array.to_list (Array.map (fun sh -> Array.of_list (List.rev sh.sched)) t.shards))
    in
    Array.sort
      (fun (t1, k1, _) (t2, k2, _) ->
        let c = compare t1 t2 in
        if c <> 0 then c else compare k1 k2)
      all;
    Array.map
      (fun (time, _, code) ->
        if code < 0 then (time, Sched_tick { node = -code - 1 })
        else (time, Sched_deliver { src = code / n; dst = code mod n }))
      all

  (* ---------------------------------------------------------------- *)
  (* Driver. *)

  type outcome = {
    converged : bool;
    rounds : int;
    time : float;
    deliveries : int;
  }

  let run t ?(max_rounds = 200_000) ?(window = 8.0) ~stop () =
    if window <= 0.0 then invalid_arg "Pengine.run: window must be positive";
    let finished = ref (stop t) in
    while (not !finished) && rounds t <= max_rounds do
      run_window t ~until:(t.horizon +. window);
      if stop t then finished := true
    done;
    { converged = stop t; rounds = rounds t; time = t.horizon; deliveries = deliveries t }
end
