module Graph = Mdst_graph.Graph
module Fault = Mdst_sim.Fault

type 'a t = 'a -> 'a Seq.t

let nothing _ = Seq.empty

(* Strictness is what makes greedy shrinking terminate and — just as
   importantly — idempotent: re-shrinking an already-minimal
   counterexample finds no candidate that still fails (in particular
   never the counterexample itself) and returns it unchanged.  Every
   exported shrinker is wrapped so a violation fails loudly at the point
   of generation instead of looping the driver forever. *)
let strictly ~size shrink x =
  let sx = size x in
  Seq.map
    (fun c ->
      assert (size c < sx);
      c)
    (shrink x)

let int ?(towards = 0) v =
  let raw v =
    if v = towards then Seq.empty
    else
      (* The target first, then candidates halving the distance back up. *)
      let rec gaps acc gap = if gap = 0 then acc else gaps (gap :: acc) (gap / 2) in
      towards :: List.rev_map (fun g -> towards + g) (gaps [] ((v - towards) / 2))
      |> List.to_seq
      |> Seq.filter (fun c -> c <> v)
  in
  strictly ~size:(fun c -> abs (c - towards)) raw v

(* Remove chunks of decreasing size, then singles. *)
let list xs =
  let raw xs =
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let without_range lo len =
      Array.to_list arr |> List.filteri (fun i _ -> i < lo || i >= lo + len)
    in
    let rec chunks size () =
      if size = 0 then Seq.Nil
      else
        let starts = Seq.init (max 1 (n - size + 1)) (fun i -> i) in
        Seq.append
          (Seq.filter_map
             (fun lo -> if lo + size <= n then Some (without_range lo size) else None)
             starts)
          (chunks (size / 2))
          ()
    in
    (* [max 1]: a singleton still offers the empty list — without it a
       one-element schedule or plan could never lose its last entry and
       "minimal" would silently mean "at least one". *)
    if n = 0 then Seq.empty else chunks (max 1 (n / 2))
  in
  strictly ~size:List.length raw xs

let remove_vertex g v =
  let n = Graph.n g in
  if n <= 2 || v < 0 || v >= n then None
  else begin
    let rename w = if w > v then w - 1 else w in
    let edges =
      Graph.fold_edges g ~init:[] ~f:(fun acc a b ->
          if a = v || b = v then acc else (rename a, rename b) :: acc)
    in
    let ids =
      Array.init (n - 1) (fun i -> Graph.id g (if i >= v then i + 1 else i))
    in
    let candidate = Graph.of_edges ~ids ~n:(n - 1) edges in
    if Mdst_graph.Algo.is_connected candidate then Some candidate else None
  end

let remove_edge g (u, v) =
  let n = Graph.n g in
  let edges =
    Graph.fold_edges g ~init:[] ~f:(fun acc a b ->
        if (a = u && b = v) || (a = v && b = u) then acc else (a, b) :: acc)
  in
  let ids = Array.init n (Graph.id g) in
  Graph.of_edges ~ids ~n edges

let edge_deletions g =
  let bridges = Mdst_graph.Algo.bridges g in
  Array.to_seq (Graph.edges g)
  |> Seq.filter (fun e -> not (List.mem e bridges))
  |> Seq.map (remove_edge g)

let vertex_deletions g =
  Seq.filter_map (fun v -> Option.map (fun c -> (v, c)) (remove_vertex g v)) (Seq.init (Graph.n g) Fun.id)

let graph g =
  let raw g = Seq.append (Seq.map snd (vertex_deletions g)) (edge_deletions g) in
  strictly ~size:(fun g -> Graph.n g + Graph.m g) raw g

let plan (p : Fault.plan) =
  strictly
    ~size:(fun p -> List.length p.Fault.events)
    (fun p -> Seq.map (fun events -> { p with Fault.events }) (list p.Fault.events))
    p

let remap_plan_without_vertex ~removed (p : Fault.plan) =
  let rename w = if w > removed then w - 1 else w in
  let keep ev =
    not (List.mem removed (Fault.nodes_mentioned { p with Fault.events = [ ev ] }))
  in
  let rename_event (ev : Fault.event) : Fault.event =
    match ev with
    | Drop f -> Drop { f with src = rename f.src; dst = rename f.dst }
    | Duplicate f -> Duplicate { f with src = rename f.src; dst = rename f.dst }
    | Reorder f -> Reorder { f with src = rename f.src; dst = rename f.dst }
    | Corrupt f -> Corrupt { f with src = rename f.src; dst = rename f.dst }
    | Crash f -> Crash { f with node = rename f.node }
    | Cut f -> Cut { f with u = rename f.u; v = rename f.v }
    | Link f -> Link { f with u = rename f.u; v = rename f.v }
  in
  { p with Fault.events = List.map rename_event (List.filter keep p.Fault.events) }

let scenario (s : Scenario.t) =
  let plan_events = function Scenario.Converge p -> List.length p.Fault.events | _ -> 0 in
  let size (s : Scenario.t) =
    (match s.schedule with Scenario.Natural k -> k | Scenario.Events e -> List.length e.events)
    + Graph.n s.graph + Graph.m s.graph + plan_events s.oracle
  in
  let raw (s : Scenario.t) =
    match s.schedule with
    | Scenario.Events _ -> Seq.empty
    | Scenario.Natural k ->
        (* Fewer events first: a prefix of the engine's schedule for a
           fixed (graph, seed, init) is a fixed sequence. *)
        let fewer =
          Seq.filter_map
            (fun e -> if e >= 1 && e < k then Some { s with schedule = Scenario.Natural e } else None)
            (int ~towards:1 k)
        in
        let vertices =
          Seq.map
            (fun (v, graph) ->
              let oracle =
                match s.oracle with
                | Scenario.Converge p -> Scenario.Converge (remap_plan_without_vertex ~removed:v p)
                | o -> o
              in
              { s with graph; oracle })
            (vertex_deletions s.graph)
        in
        let plans =
          match s.oracle with
          | Scenario.Converge p -> Seq.map (fun p -> { s with oracle = Scenario.Converge p }) (plan p)
          | Scenario.Lockstep | Scenario.Decouple -> Seq.empty
        in
        let edges = Seq.map (fun graph -> { s with graph }) (edge_deletions s.graph) in
        Seq.append fewer (Seq.append vertices (Seq.append plans edges))
  in
  strictly ~size raw s
