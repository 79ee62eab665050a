module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Algo = Mdst_graph.Algo
module Prng = Mdst_util.Prng

let states ~old_graph ~new_graph old_states =
  let n = Graph.n old_graph in
  if Graph.n new_graph <> n then invalid_arg "Transplant.states: node count differs";
  for v = 0 to n - 1 do
    if Graph.id old_graph v <> Graph.id new_graph v then
      invalid_arg "Transplant.states: identifier assignment differs"
  done;
  Array.init n (fun v ->
      let st = old_states.(v) in
      let old_nbrs = Graph.neighbors old_graph v in
      let new_nbrs = Graph.neighbors new_graph v in
      (* Re-match mirror slots by neighbour identifier. *)
      let view_of_id id =
        let rec find k =
          if k >= Array.length old_nbrs then State.unknown_view
          else if Graph.id old_graph old_nbrs.(k) = id then State.Views.get st.State.views k
          else find (k + 1)
        in
        find 0
      in
      let ids = Array.map (Graph.id new_graph) new_nbrs in
      let views =
        State.Views.of_array ~id:(Graph.id new_graph v) ~n ~ids (Array.map view_of_id ids)
      in
      { st with State.views })

let remove_tree_edge rng graph tree =
  let bridges = Algo.bridges graph in
  let candidates =
    List.filter (fun e -> not (List.mem e bridges)) (Tree.edge_list tree)
  in
  match candidates with
  | [] -> None
  | _ ->
      let u, v = Prng.choose rng (Array.of_list candidates) in
      let kept =
        Graph.fold_edges graph ~init:[] ~f:(fun acc a b ->
            if (a, b) = (u, v) then acc else (a, b) :: acc)
      in
      let ids = Array.init (Graph.n graph) (Graph.id graph) in
      Some (Graph.of_edges ~ids ~n:(Graph.n graph) kept, (u, v))

let remove_heaviest_tree_edge graph tree =
  let bridges = Algo.bridges graph in
  let n = Graph.n graph in
  (* Subtree sizes via accumulation from the deepest nodes upward. *)
  let size = Array.make n 1 in
  let order = List.sort (fun a b -> compare (Tree.depth tree b) (Tree.depth tree a)) (List.init n Fun.id) in
  List.iter
    (fun v -> if v <> Tree.root tree then size.(Tree.parent tree v) <- size.(Tree.parent tree v) + size.(v))
    order;
  let weight (u, v) =
    let lower = if Tree.depth tree u > Tree.depth tree v then u else v in
    size.(lower)
  in
  let candidates = List.filter (fun e -> not (List.mem e bridges)) (Tree.edge_list tree) in
  match candidates with
  | [] -> None
  | first :: rest ->
      let u, v = List.fold_left (fun best e -> if weight e > weight best then e else best) first rest in
      let kept =
        Graph.fold_edges graph ~init:[] ~f:(fun acc a b ->
            if (a, b) = (u, v) then acc else (a, b) :: acc)
      in
      let ids = Array.init n (Graph.id graph) in
      Some (Graph.of_edges ~ids ~n kept, (u, v))

let add_random_edge rng graph =
  match Graph.non_edges graph with
  | [] -> None
  | absent ->
      let u, v = Prng.choose rng (Array.of_list absent) in
      let ids = Array.init (Graph.n graph) (Graph.id graph) in
      let edges = Array.to_list (Graph.edges graph) in
      Some (Graph.of_edges ~ids ~n:(Graph.n graph) ((u, v) :: edges), (u, v))
