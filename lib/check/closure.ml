(* The legitimacy-closure premise and the legitimate configuration it
   starts from.  See closure.mli for the statement. *)

module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Node = Mdst_sim.Node
module State = Mdst_core.State
module Msg = Mdst_core.Msg
module Checker = Mdst_core.Checker
module Fr = Mdst_baseline.Fr


(* Every node's current public variables, as its Info would carry them. *)
let current_infos ctxs states =
  Array.mapi
    (fun v st ->
      {
        Msg.i_root = st.State.root;
        i_parent = st.State.parent;
        i_dist = st.State.dist;
        i_deg = State.tree_degree ctxs.(v) st;
        i_dmax = st.State.dmax;
        i_color = st.State.color;
        i_subtree_max = st.State.subtree_max;
      })
    states

let views_accurate ctxs states infos =
  let ok = ref true in
  Array.iteri
    (fun v st ->
      Array.iteri
        (fun s w ->
          let vw = State.Views.get st.State.views s in
          let i = infos.(w) in
          if
            not
              (vw.State.w_fresh && vw.State.w_root = i.Msg.i_root
              && vw.State.w_parent = i.Msg.i_parent
              && vw.State.w_dist = i.Msg.i_dist
              && vw.State.w_deg = i.Msg.i_deg
              && vw.State.w_dmax = i.Msg.i_dmax
              && vw.State.w_color = i.Msg.i_color
              && vw.State.w_subtree_max = i.Msg.i_subtree_max)
          then ok := false)
        ctxs.(v).Node.neighbors)
    states;
  !ok

(* A message is premise-compatible when delivering it (now or later) cannot
   feed a node data that disagrees with the network's current truth:
   an Info that is exactly the sender's current public variables, a Search
   whose every stack entry matches its node's current degree and distance,
   or a Deblock (a pure request to search).  Everything else — mid-swap
   traffic, distance repair, stale gossip — falsifies the premise. *)
let message_ok graph infos src msg =
  match msg with
  | Msg.Info i -> i = infos.(src)
  | Msg.Search { s_stack; _ } ->
      List.for_all
        (fun e ->
          match Graph.index_of_id graph e.Msg.e_id with
          | exception Not_found -> false
          | w -> e.Msg.e_deg = infos.(w).Msg.i_deg && e.Msg.e_dist = infos.(w).Msg.i_dist)
        s_stack
  | Msg.Deblock _ -> true
  | Msg.Swap_req _ | Msg.Remove _ | Msg.Grant _ | Msg.Reverse _
  | Msg.Update_dist _ ->
      false

(* The legitimacy-closure premise: from here, every enabled event must lead
   to a legitimate configuration.  [not (Fr.improvable tree)] is the paper's
   fixpoint condition — while an improvement exists the protocol rightly
   commits a swap, transiting through configurations whose dmax bookkeeping
   lags the tree.  Cheapest conjuncts first. *)
let premise ctxs graph nodes channels =
  Array.for_all (fun st -> st.State.pending = None) nodes
  && (let infos = current_infos ctxs nodes in
      let n = Graph.n graph in
      views_accurate ctxs nodes infos
      && (let ok = ref true in
          Array.iteri
            (fun k l -> if !ok then ok := List.for_all (message_ok graph infos (k / n)) l)
            channels;
          !ok))
  && Checker.legitimate graph nodes
  &&
  match Checker.tree_of_states graph nodes with
  | None -> false
  | Some tree -> not (Fr.improvable tree)

(* ---------------- initial configurations ---------------- *)

let legitimate_with ctxs graph =
  let tree = Fr.approx_mdst ~root:(Graph.min_id_node graph) graph in
  let dmax = Tree.max_degree tree in
  let root = Tree.root tree in
  let root_id = Graph.id graph root in
  let n = Graph.n graph in
  let stm = Array.make n 0 in
  let rec fill v =
    let m = ref (Tree.degree tree v) in
    List.iter
      (fun c ->
        fill c;
        if stm.(c) > !m then m := stm.(c))
      (Tree.children tree v);
    stm.(v) <- !m
  in
  fill root;
  let parent_id v = Graph.id graph (if v = root then v else Tree.parent tree v) in
  Array.init n (fun v ->
      let views =
        State.views_of_array ctxs.(v)
        @@ Array.map
          (fun w ->
            {
              State.w_root = root_id;
              w_parent = parent_id w;
              w_dist = Tree.depth tree w;
              w_deg = Tree.degree tree w;
              w_dmax = dmax;
              w_color = false;
              w_subtree_max = stm.(w);
              w_fresh = true;
            })
          ctxs.(v).Node.neighbors
      in
      {
        State.root = root_id;
        parent = parent_id v;
        dist = Tree.depth tree v;
        dmax;
        color = false;
        subtree_max = stm.(v);
        views;
        pending = None;
        deblock = None;
        search_cursor = 0;
        last_info = None;
        info_age = 0;
      })

(* The premise and the legitimate builder only read the topology fields
   of a context (neighbors / ids / n), so a no-op-send context array lets
   a harness without node contexts of its own call them. *)
let contexts graph =
  let n = Graph.n graph in
  Array.init n (fun v ->
      let nbrs = Array.copy (Graph.neighbors graph v) in
      Node.make_ctx ~node:v ~id:(Graph.id graph v) ~n ~neighbors:nbrs
        ~neighbor_ids:(Array.map (Graph.id graph) nbrs)
        ~send:(fun _ _ -> ())
        ())

let legitimate_states graph = legitimate_with (contexts graph) graph
