module Prng = Mdst_util.Prng
module Heap = Mdst_util.Heap
module Graph = Mdst_graph.Graph

let fifo_epsilon = 1e-6

(* What an attached observer sees; message payloads are reduced to their
   family label so observers stay generic across protocols. *)
type observation =
  | Obs_tick of { node : int; round : int; time : float }
  | Obs_deliver of { src : int; dst : int; label : string; round : int; time : float }
  | Obs_fault of { kind : string; detail : string; round : int; time : float }

module Make (A : Node.AUTOMATON) = struct
  (* One heap entry.  Single-level on purpose: a delivery used to be an
     inline [Deliver] record inside an {event; tag} wrapper (7 words); one
     entry is pushed and popped per simulated send, so the extra block was
     a visible slice of the protocol macro-benchmark's allocations (E20). *)
  type tagged =
    | Tick of { node : int; tag : int }
    | Deliver of { src : int; dst : int; msg : A.msg; tag : int }

  (* An installed Fault.plan.  Channel events are indexed by ordered channel
     ([src * n + dst]) so a send on an untampered channel costs one hash
     lookup and no list scan; scheduled events form a round-ordered queue.
     Each event carries its private PRNG stream so decisions never touch
     the engine's stream and survive deletion of sibling events
     (shrinking). *)
  type faults = {
    by_channel : (int, (Fault.event * Prng.t) list) Hashtbl.t;  (* in plan order *)
    mutable pending : (int * Fault.event * Prng.t) list;  (* sorted by round *)
    fremap : old_graph:Graph.t -> new_graph:Graph.t -> A.state array -> A.state array;
    mutable stats : Fault.stats;
  }

  type t = {
    mutable graph : Graph.t;
    latency : Latency.t;
    (* Cached [Latency.uniform_params]: when the model is the plain
       uniform, [enqueue_raw] inlines the draw — same generator step,
       bit-identical float arithmetic — instead of paying the closure
       call's float boxing on every send. *)
    lat_uniform : bool;
    lat_lo : float;
    lat_span : float;  (* hi -. lo, precomputed *)
    tick_period : float;
    rng : Prng.t;
    states : A.state array;
    ctxs : A.msg Node.ctx array;
    heap : tagged Heap.t;
    mutable fifo_floor : float array array;
        (* fifo_floor.(src).(k): FIFO floor of the channel from [src] to its
           k-th neighbour (same order as [Graph.neighbors]).  O(n + m) in
           total — the engine holds no per-ordered-pair structure — and
           rebuilt by [reshape], carrying the floors of surviving edges. *)
    metrics : Metrics.t;
    mutable now : float;
    mutable round : int;
    mutable current_tag : int;  (* tag of the event being processed *)
    mutable deliveries : int;
    mutable observer : (observation -> unit) option;
    mutable faults : faults option;
    mutable tampered_until : float;
        (* Latest arrival time of any message a fault-plan channel event
           created or modified (corrupted payloads, duplicate copies,
           reordered deliveries).  Deliveries execute in time order, so once
           [now] passes this, no adversarial payload is in flight any more
           — [faults_pending] holds until then, closing the window where a
           convergence check could declare victory with a tampered message
           still queued (delivered later, it breaks closure). *)
  }

  type init =
    [ `Clean
    | `Random
    | `Custom of A.msg Node.ctx -> Prng.t -> A.state ]

  (* [detail] is a thunk: fault labels are only materialized when a fault
     actually fires AND someone is listening. *)
  let note t ~kind ~detail =
    match t.observer with
    | Some f -> f (Obs_fault { kind; detail = detail (); round = t.round; time = t.now })
    | None -> ()

  (* Slot of [dst] in the sorted neighbour array of [src]; the channel's
     FIFO floor lives at that slot. *)
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
      invalid_arg (Printf.sprintf "Engine: %d -> %d is not a channel" src dst);
    !found

  let fresh_floors graph =
    Array.init (Graph.n graph) (fun u -> Array.make (Graph.degree graph u) neg_infinity)

  (* [rng] (default: the engine's stream) feeds the latency draw; fault
     primitives pass their own stream so they do not shift the fault-free
     schedule. *)
  let enqueue_raw t ?extra_delay ?rng ~src ~dst msg =
    let rng = match rng with Some r -> r | None -> t.rng in
    let lat =
      if t.lat_uniform then
        (* Exactly [lo +. Prng.float rng (hi -. lo)], with the float kept
           unboxed end to end (Prng.raw53 returns an immediate). *)
        t.lat_lo +. (t.lat_span *. (float_of_int (Prng.raw53 rng) /. 9007199254740992.0))
      else Latency.sample t.latency rng ~src ~dst
    in
    let arrival =
      match extra_delay with
      | None ->
          let floors = t.fifo_floor.(src) in
          let k = slot_in t.graph src dst in
          let a = max (t.now +. lat) (floors.(k) +. fifo_epsilon) in
          floors.(k) <- a;
          a
      (* [extra_delay = Some d] bypasses the FIFO floor: the delayed message
         may be overtaken by later sends on the same channel (reorder
         faults). *)
      | Some d -> t.now +. lat +. d
    in
    Metrics.record_send t.metrics ~label:(A.msg_label msg)
      ~bits:(A.msg_bits ~n:(Graph.n t.graph) msg);
    Heap.push t.heap ~prio:arrival (Deliver { src; dst; msg; tag = t.current_tag + 1 });
    arrival

  let in_window (w : Fault.window) round = w.from_round <= round && round <= w.upto_round

  (* The first channel event whose round window is open — and whose coin
     comes up — decides the fate of the message.  Only events installed for
     this exact ordered channel are consulted (see [install_faults]). *)
  let enqueue ?rng t ~src ~dst msg =
    (* Tampered enqueues extend the adversarial-traffic horizon consulted by
       [faults_pending]: a tampered message is adversarial state until
       delivered, even after its event's round window closes. *)
    let mark arrival = if arrival > t.tampered_until then t.tampered_until <- arrival in
    let tamper fs events =
      let chan () = Printf.sprintf "%d>%d" src dst in
      let rec decide = function
        | [] -> ignore (enqueue_raw t ?rng ~src ~dst msg)
        | (ev, erng) :: rest -> (
            match (ev : Fault.event) with
            | Drop f when in_window f.window t.round && Prng.bernoulli erng f.prob ->
                fs.stats <- { fs.stats with Fault.drops = fs.stats.Fault.drops + 1 };
                note t ~kind:"drop" ~detail:chan
            | Duplicate f when in_window f.window t.round && Prng.bernoulli erng f.prob ->
                fs.stats <- { fs.stats with Fault.duplicates = fs.stats.Fault.duplicates + 1 };
                note t ~kind:"dup" ~detail:(fun () -> Printf.sprintf "%s x%d" (chan ()) f.copies);
                for _ = 0 to f.copies do
                  mark (enqueue_raw t ?rng ~src ~dst msg)
                done
            | Reorder f when in_window f.window t.round && Prng.bernoulli erng f.prob ->
                fs.stats <- { fs.stats with Fault.reorders = fs.stats.Fault.reorders + 1 };
                note t ~kind:"reorder" ~detail:chan;
                mark (enqueue_raw t ~extra_delay:(Prng.float erng f.delay) ?rng ~src ~dst msg)
            | Corrupt f when in_window f.window t.round && Prng.bernoulli erng f.prob -> (
                match A.random_msg t.ctxs.(src) erng with
                | Some msg' ->
                    fs.stats <-
                      { fs.stats with Fault.corruptions = fs.stats.Fault.corruptions + 1 };
                    note t ~kind:"corrupt" ~detail:chan;
                    mark (enqueue_raw t ?rng ~src ~dst msg')
                | None -> decide rest)
            | _ -> decide rest)
      in
      decide events
    in
    match t.faults with
    | None -> ignore (enqueue_raw t ?rng ~src ~dst msg)
    | Some fs -> (
        match Hashtbl.find_opt fs.by_channel ((src * Graph.n t.graph) + dst) with
        | None -> ignore (enqueue_raw t ?rng ~src ~dst msg)
        | Some events -> tamper fs events)

  (* [note_suppressed] and [now] read only engine-wide fields, so every
     node shares one closure of each. *)
  let make_ctx t ~note_suppressed ~now ~rng i =
    let neighbors = Graph.neighbors t.graph i in
    Node.make_ctx ~node:i ~id:(Graph.id t.graph i) ~n:(Graph.n t.graph) ~neighbors
      ~neighbor_ids:(Array.map (Graph.id t.graph) neighbors)
      ~send:(fun dst msg ->
        if not (Graph.mem_edge t.graph i dst) then
          invalid_arg (Printf.sprintf "Engine: node %d sending to non-neighbour %d" i dst);
        enqueue t ~src:i ~dst msg)
      ~note_suppressed ~now ~rng ()

  let create ?(latency = Latency.uniform ()) ?(tick_period = 1.0) ?(seed = 42)
      ?(init = `Clean) graph =
    let n = Graph.n graph in
    if n = 0 then invalid_arg "Engine.create: empty graph";
    if not (Mdst_graph.Algo.is_connected graph) then
      invalid_arg "Engine.create: graph must be connected";
    let rng = Prng.create seed in
    let lat_lo, lat_span, lat_uniform =
      match Latency.uniform_params latency with
      | Some (lo, hi) -> (lo, hi -. lo, true)
      | None -> (0.0, 0.0, false)
    in
    let t =
      {
        graph;
        latency;
        lat_uniform;
        lat_lo;
        lat_span;
        tick_period;
        rng;
        states = Array.make n (Obj.magic 0);
        ctxs = Array.make n (Obj.magic 0);
        heap = Heap.create ~capacity:(4 * n) ();
        fifo_floor = fresh_floors graph;
        metrics = Metrics.create ();
        now = 0.0;
        round = 0;
        current_tag = 0;
        deliveries = 0;
        observer = None;
        faults = None;
        tampered_until = neg_infinity;
      }
    in
    let note_suppressed k = Metrics.record_suppressed t.metrics k and now () = t.now in
    for i = 0 to n - 1 do
      t.ctxs.(i) <- make_ctx t ~note_suppressed ~now ~rng:(Prng.split rng) i
    done;
    (* Initial states are installed without letting handlers send. *)
    for i = 0 to n - 1 do
      let state =
        match init with
        | `Clean -> A.init t.ctxs.(i)
        | `Random -> A.random_state t.ctxs.(i) (Prng.split rng)
        | `Custom f -> f t.ctxs.(i) (Prng.split rng)
      in
      t.states.(i) <- state
    done;
    (* Adversarial starts also corrupt channel contents. *)
    (match init with
    | `Random ->
        Graph.iter_edges graph (fun u v ->
            let inject_on src dst =
              let k = Prng.int rng 3 in
              for _ = 1 to k do
                match A.random_msg t.ctxs.(src) rng with
                | Some msg -> enqueue t ~src ~dst msg
                | None -> ()
              done
            in
            inject_on u v;
            inject_on v u)
    | `Clean | `Custom _ -> ());
    (* Arm the periodic timers with a random phase each. *)
    for i = 0 to n - 1 do
      Heap.push t.heap ~prio:(Prng.float rng tick_period) (Tick { node = i; tag = 1 })
    done;
    t

  let graph t = t.graph

  let state t i = t.states.(i)

  let states t = t.states

  let now t = t.now

  let rounds t = t.round

  let metrics t = t.metrics

  let pending_events t = Heap.length t.heap

  let in_flight_exists t pred =
    List.exists
      (fun (_, ev) -> match ev with Deliver { msg; _ } -> pred msg | Tick _ -> false)
      (Heap.to_list t.heap)

  let set_state t i s = t.states.(i) <- s

  let observe t f = t.observer <- Some f

  let unobserve t = t.observer <- None

  let inject_with ?rng t ~src ~dst msg =
    if not (Graph.mem_edge t.graph src dst) then invalid_arg "Engine.inject: not adjacent";
    let saved = t.current_tag in
    t.current_tag <- t.round;
    enqueue ?rng t ~src ~dst msg;
    t.current_tag <- saved

  let inject t ~src ~dst msg = inject_with t ~src ~dst msg

  let reset_node t ?rng mode i =
    let rng = match rng with Some r -> r | None -> t.rng in
    t.states.(i) <-
      (match mode with `Init -> A.init t.ctxs.(i) | `Random -> A.random_state t.ctxs.(i) rng)

  (* Queued messages are lost; the channel's FIFO floor is deliberately
     KEPT (see engine.mli): later traffic stays ordered after the lost
     messages' arrival times, as on a real FIFO link that lost content. *)
  let purge_channel t ~src ~dst =
    Heap.filter t.heap (fun _ ev ->
        match ev with
        | Deliver d -> not (d.src = src && d.dst = dst)
        | Tick _ -> true)

  let reshape t ?(remap = fun ~old_graph:_ ~new_graph:_ states -> states) new_graph =
    if Graph.n new_graph <> Graph.n t.graph then
      invalid_arg "Engine.reshape: node count must be preserved";
    if not (Mdst_graph.Algo.is_connected new_graph) then
      invalid_arg "Engine.reshape: graph must stay connected";
    let old_graph = t.graph in
    (* Messages in flight on vanished edges are lost with the edge. *)
    ignore
      (Heap.filter t.heap (fun _ ev ->
           match ev with
           | Deliver { src; dst; _ } -> Graph.mem_edge new_graph src dst
           | Tick _ -> true));
    (* Surviving channels keep their FIFO floor; new channels (and re-added
       ones — their in-flight messages died with the edge) start fresh. *)
    let old_floors = t.fifo_floor in
    t.fifo_floor <-
      Array.init (Graph.n new_graph) (fun u ->
          Array.map
            (fun v ->
              if Graph.mem_edge old_graph u v then old_floors.(u).(slot_in old_graph u v)
              else neg_infinity)
            (Graph.neighbors new_graph u));
    t.graph <- new_graph;
    for i = 0 to Graph.n new_graph - 1 do
      let c = t.ctxs.(i) in
      t.ctxs.(i) <- make_ctx t ~note_suppressed:c.Node.note_suppressed ~now:c.now ~rng:c.rng i
    done;
    let remapped = remap ~old_graph ~new_graph t.states in
    if remapped != t.states then Array.blit remapped 0 t.states 0 (Array.length t.states)

  let install_faults t ?(remap = fun ~old_graph:_ ~new_graph:_ states -> states) plan =
    let n = Graph.n t.graph in
    let channel, scheduled =
      List.partition
        (fun ev ->
          match (ev : Fault.event) with
          | Drop _ | Duplicate _ | Reorder _ | Corrupt _ -> true
          | Crash _ | Cut _ | Link _ -> false)
        plan.Fault.events
    in
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
        (* Events naming an impossible channel can never fire; indexing them
           would alias a real channel's key. *)
        if src >= 0 && src < n && dst >= 0 && dst < n && src <> dst then begin
          let key = (src * n) + dst in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_channel key) in
          Hashtbl.replace by_channel key (prev @ [ (ev, Fault.rng_for plan ev) ])
        end)
      channel;
    let pending =
      List.stable_sort
        (fun (r1, _, _) (r2, _, _) -> compare r1 r2)
        (List.map
           (fun ev ->
             let r =
               match (ev : Fault.event) with
               | Crash { at_round; _ } | Cut { at_round; _ } | Link { at_round; _ } -> at_round
               | _ -> assert false
             in
             (r, ev, Fault.rng_for plan ev))
           scheduled)
    in
    t.faults <- Some { by_channel; pending; fremap = remap; stats = Fault.zero_stats }

  let fault_stats t = match t.faults with None -> Fault.zero_stats | Some fs -> fs.stats

  let faults_pending t =
    match t.faults with
    | None -> false
    | Some fs -> fs.pending <> [] || t.now <= t.tampered_until

  let skip fs t ~detail =
    fs.stats <- { fs.stats with Fault.skipped = fs.stats.Fault.skipped + 1 };
    note t ~kind:"skip" ~detail

  (* Fire every scheduled event whose round has been reached.  Cut / Link
     must keep the network inside the paper's model (connected, simple), so
     infeasible events are skipped and recorded as such — this is what lets
     the shrinker delete graph structure without invalidating plans. *)
  let apply_due_faults t =
    match t.faults with
    | None -> ()
    | Some fs ->
        let n = Graph.n t.graph in
        let rec go () =
          match fs.pending with
          | (r, ev, rng) :: rest when r <= t.round ->
              fs.pending <- rest;
              (match (ev : Fault.event) with
              | Crash { node; mode; _ } ->
                  if node < 0 || node >= n then
                    skip fs t ~detail:(fun () -> Printf.sprintf "crash %d out of range" node)
                  else begin
                    fs.stats <- { fs.stats with Fault.crashes = fs.stats.Fault.crashes + 1 };
                    note t ~kind:"crash"
                      ~detail:(fun () ->
                        Printf.sprintf "%d %s" node
                          (match mode with `Init -> "init" | `Random -> "random"));
                    reset_node t ~rng mode node;
                    Array.iter
                      (fun nb ->
                        ignore (purge_channel t ~src:node ~dst:nb);
                        ignore (purge_channel t ~src:nb ~dst:node))
                      (Graph.neighbors t.graph node)
                  end
              | Cut { u; v; _ } ->
                  if u < 0 || v < 0 || u >= n || v >= n || not (Graph.mem_edge t.graph u v)
                  then skip fs t ~detail:(fun () -> Printf.sprintf "cut %d-%d absent" u v)
                  else begin
                    let ids = Array.init n (Graph.id t.graph) in
                    let edges =
                      List.filter
                        (fun (a, b) -> not ((a = u && b = v) || (a = v && b = u)))
                        (Array.to_list (Graph.edges t.graph))
                    in
                    let candidate = Graph.of_edges ~ids ~n edges in
                    if not (Mdst_graph.Algo.is_connected candidate) then
                      skip fs t ~detail:(fun () ->
                          Printf.sprintf "cut %d-%d would disconnect" u v)
                    else begin
                      fs.stats <- { fs.stats with Fault.cuts = fs.stats.Fault.cuts + 1 };
                      note t ~kind:"cut" ~detail:(fun () -> Printf.sprintf "%d-%d" u v);
                      reshape t ~remap:fs.fremap candidate
                    end
                  end
              | Link { u; v; _ } ->
                  if u < 0 || v < 0 || u >= n || v >= n || u = v || Graph.mem_edge t.graph u v
                  then skip fs t ~detail:(fun () -> Printf.sprintf "link %d-%d infeasible" u v)
                  else begin
                    let ids = Array.init n (Graph.id t.graph) in
                    let edges = (u, v) :: Array.to_list (Graph.edges t.graph) in
                    fs.stats <- { fs.stats with Fault.links = fs.stats.Fault.links + 1 };
                    note t ~kind:"link" ~detail:(fun () -> Printf.sprintf "%d-%d" u v);
                    reshape t ~remap:fs.fremap (Graph.of_edges ~ids ~n edges)
                  end
              | Drop _ | Duplicate _ | Reorder _ | Corrupt _ -> assert false);
              go ()
          | _ -> ()
        in
        go ()

  let corrupt t ?(fraction = 1.0) ?(channels = false) () =
    let n = Graph.n t.graph in
    let k = max 1 (int_of_float (Float.round (fraction *. float_of_int n))) in
    let victims = Prng.sample_without_replacement t.rng (min k n) n in
    (* One split stream per victim feeds its state corruption AND (with
       [channels]) its injected payloads and their latency draws, so the
       engine's own stream advances by exactly [k] splits either way — the
       post-corruption tick/latency schedule does not depend on whether
       channel corruption was requested. *)
    List.iter
      (fun i ->
        let vrng = Prng.split t.rng in
        t.states.(i) <- A.random_state t.ctxs.(i) vrng;
        if channels then begin
          (* Mutant "corrupt-shared-stream" reintroduces the historical
             coupling this split-stream design removed: payload and latency
             draws coming from the engine's own stream, shifting the
             post-corruption schedule when channel corruption is on. *)
          let crng =
            if Mdst_util.Mutation.enabled "corrupt-shared-stream" then t.rng else vrng
          in
          Array.iter
            (fun nb ->
              match A.random_msg t.ctxs.(i) crng with
              | Some msg -> inject_with ~rng:crng t ~src:i ~dst:nb msg
              | None -> ())
            (Graph.neighbors t.graph i)
        end)
      victims;
    List.length victims

  (* Execute one already-dequeued event; shared by [step] (priority order)
     and [step_with] (caller-chosen order). *)
  let execute t time ev =
    t.now <- max t.now time;
    let tag = match ev with Tick { tag; _ } | Deliver { tag; _ } -> tag in
    t.current_tag <- tag;
    if tag > t.round then t.round <- tag;
    match ev with
    | Tick { node = i; _ } ->
        (match t.observer with
        | Some f -> f (Obs_tick { node = i; round = t.round; time = t.now })
        | None -> ());
        t.states.(i) <- A.on_tick t.ctxs.(i) t.states.(i);
        Metrics.record_state_bits t.metrics
          (A.state_bits ~n:(Graph.n t.graph) t.states.(i));
        Heap.push t.heap ~prio:(t.now +. t.tick_period) (Tick { node = i; tag = tag + 1 })
    | Deliver { src; dst; msg; _ } ->
        (match t.observer with
        | Some f ->
            f (Obs_deliver
                 { src; dst; label = A.msg_label msg; round = t.round; time = t.now })
        | None -> ());
        t.deliveries <- t.deliveries + 1;
        Metrics.record_delivery t.metrics;
        t.states.(dst) <- A.on_message t.ctxs.(dst) t.states.(dst) ~src msg

  let step t =
    apply_due_faults t;
    if Heap.is_empty t.heap then false
    else begin
      (* top_prio + drop_min instead of pop: no option/tuple per event. *)
      let time = Heap.top_prio t.heap in
      let ev = Heap.drop_min t.heap in
      execute t time ev;
      true
    end

  let in_flight t =
    Heap.to_list t.heap
    |> List.filter_map (fun (prio, ev) ->
           match ev with
           | Deliver { src; dst; msg; _ } -> Some (prio, (src, dst, msg))
           | Tick _ -> None)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd

  type choice =
    | Choose_tick of { node : int }
    | Choose_deliver of { src : int; dst : int; label : string }

  let step_with t ~choose =
    apply_due_faults t;
    if Heap.is_empty t.heap then false
    else begin
      let n = Graph.n t.graph in
      let entries = Heap.to_list t.heap in
      (* Eligible: every armed tick, plus the oldest (min arrival time,
         i.e. FIFO head) queued message of each ordered channel. *)
      let ticks =
        List.filter_map
          (fun (prio, ev) ->
            match ev with Tick { node; _ } -> Some (node, (prio, ev)) | Deliver _ -> None)
          entries
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let heads = Hashtbl.create 16 in
      List.iter
        (fun (prio, ev) ->
          match ev with
          | Deliver { src; dst; _ } -> (
              let key = (src * n) + dst in
              match Hashtbl.find_opt heads key with
              | Some (p0, _) when p0 <= prio -> ()
              | _ -> Hashtbl.replace heads key (prio, ev))
          | Tick _ -> ())
        entries;
      let channels =
        Hashtbl.fold (fun key entry acc -> (key, entry) :: acc) heads []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let picks = Array.of_list (List.map snd ticks @ List.map snd channels) in
      let options =
        Array.map
          (fun (_, ev) ->
            match ev with
            | Tick { node; _ } -> Choose_tick { node }
            | Deliver { src; dst; msg; _ } -> Choose_deliver { src; dst; label = A.msg_label msg })
          picks
      in
      let idx = choose options in
      if idx < 0 || idx >= Array.length picks then
        invalid_arg
          (Printf.sprintf "Engine.step_with: choice %d out of range [0, %d)" idx
             (Array.length picks));
      let time, ev = picks.(idx) in
      (* Remove exactly the chosen entry; events are freshly allocated per
         push, so physical identity picks it out of the heap uniquely. *)
      ignore (Heap.filter t.heap (fun _ e -> not (e == ev)));
      execute t time ev;
      true
    end

  type outcome = {
    converged : bool;
    rounds : int;
    time : float;
    deliveries : int;
  }

  let run t ?(max_rounds = 200_000) ?(check_every = 1) ~stop () =
    let next_check = ref (t.round + check_every) in
    let finished = ref (stop t) in
    while (not !finished) && t.round <= max_rounds do
      if not (step t) then finished := true
      else if t.round >= !next_check then begin
        next_check := t.round + check_every;
        if stop t then finished := true
      end
    done;
    {
      converged = stop t;
      rounds = t.round;
      time = t.now;
      deliveries = t.deliveries;
    }
end
