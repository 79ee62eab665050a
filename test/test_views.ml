(* The views container and the identifier index against scan-based
   oracles, and the degree-flatness of Info receipt.

   [State.Views] carries a summary of the neighbour mirror from which the
   per-receipt predicates answer in O(1); [Node.make_ctx] builds the sorted
   index behind [Node.slot_of_id].  The oracles below re-derive every
   answer by scanning the mirror, the way the predicates were written
   before the summary existed, so any drift between the summary and the
   array it summarises shows up here. *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Prng = Mdst_util.Prng
module Node = Mdst_sim.Node
module State = Mdst_core.State
module Msg = Mdst_core.Msg
module Graph_id = Mdst_core.Graph_id
module P = Mdst_core.Proto.Default

(* ---------------- scan-based oracles ---------------- *)

let o_slot_of ctx nid =
  let r = ref (-1) in
  Array.iteri (fun k x -> if !r < 0 && x = nid then r := k) ctx.Node.neighbor_ids;
  !r

let o_slot_of_node ctx v =
  let r = ref (-1) in
  Array.iteri (fun k x -> if !r < 0 && x = v then r := k) ctx.Node.neighbors;
  !r

(* Every oracle reads the mirror as a plain array [vs]. *)
let o_is_tree_edge ctx st vs slot =
  st.State.parent = ctx.Node.neighbor_ids.(slot)
  || (vs.(slot).State.w_fresh && vs.(slot).State.w_parent = ctx.Node.id)

let o_tree_degree ctx st vs =
  let d = ref 0 in
  Array.iteri (fun slot _ -> if o_is_tree_edge ctx st vs slot then incr d) vs;
  !d

let o_pif_subtree_max ctx st vs =
  Array.fold_left
    (fun acc v ->
      if v.State.w_fresh && v.w_parent = ctx.Node.id then max acc v.w_subtree_max else acc)
    (o_tree_degree ctx st vs) vs

let o_better_parent ctx st vs =
  Array.exists
    (fun v -> v.State.w_fresh && v.w_root < st.State.root && v.w_dist < ctx.Node.n)
    vs

let o_better_parent_slot ctx st vs =
  let best = ref (-1) in
  Array.iteri
    (fun slot v ->
      if v.State.w_fresh && v.w_root < st.State.root && v.w_dist < ctx.Node.n then
        if
          !best < 0
          || v.w_root < vs.(!best).State.w_root
          || (v.w_root = vs.(!best).w_root
             && ctx.Node.neighbor_ids.(slot) < ctx.Node.neighbor_ids.(!best))
        then best := slot)
    vs;
  !best

let o_new_root_candidate ctx st vs =
  let parent_view =
    let slot = o_slot_of ctx st.State.parent in
    if slot < 0 then None else Some vs.(slot)
  in
  let coherent_parent =
    if st.State.parent = ctx.Node.id then st.root = ctx.id
    else
      match parent_view with
      | None -> false
      | Some v -> (not v.State.w_fresh) || v.w_root = st.root
  in
  let coherent_distance =
    if st.State.parent = ctx.Node.id then st.dist = 0
    else
      st.dist >= 0 && st.dist <= ctx.n
      &&
      match parent_view with
      | None -> false
      | Some v -> (not v.State.w_fresh) || st.dist = v.w_dist + 1
  in
  (not coherent_parent) || (not coherent_distance) || st.root > ctx.id

let o_degree_stabilized st vs =
  Array.for_all (fun v -> v.State.w_fresh && v.w_dmax = st.State.dmax) vs

let o_color_stabilized st vs =
  Array.for_all (fun v -> v.State.w_fresh && v.w_color = st.State.color) vs

let o_locally_stabilized ctx st vs =
  (not (o_better_parent ctx st vs))
  && (not (o_new_root_candidate ctx st vs))
  && o_degree_stabilized st vs && o_color_stabilized st vs

(* ---------------- the comparison ---------------- *)

let fail_at what ctx =
  Alcotest.failf "%s disagrees with its oracle at node id %d (degree %d)" what ctx.Node.id
    (Array.length ctx.Node.neighbors)

let expect what ctx a b = if a <> b then fail_at what ctx

let check_state ctx st =
  let vs = State.Views.to_array st.State.views in
  let same what f oracle = expect what ctx (f ctx st) (oracle ctx st vs) in
  same "tree_degree" State.tree_degree o_tree_degree;
  same "pif_subtree_max" State.pif_subtree_max o_pif_subtree_max;
  same "better_parent" State.better_parent o_better_parent;
  same "better_parent_slot" State.better_parent_slot o_better_parent_slot;
  same "new_root_candidate" State.new_root_candidate o_new_root_candidate;
  same "locally_stabilized" State.locally_stabilized o_locally_stabilized;
  expect "degree_stabilized" ctx (State.degree_stabilized st) (o_degree_stabilized st vs);
  expect "color_stabilized" ctx (State.color_stabilized st) (o_color_stabilized st vs);
  Array.iteri
    (fun slot _ ->
      expect "is_tree_edge" ctx (State.is_tree_edge ctx st slot) (o_is_tree_edge ctx st vs slot))
    vs;
  (* The summary is canonical: rebuilding it from the bare array gives an
     equal container, so [=] on states compares only the mirror. *)
  if State.views_of_array ctx vs <> st.State.views then fail_at "canonical summary" ctx

let check_lookups ctx =
  Array.iteri
    (fun slot nid ->
      expect "slot_of_id" ctx (Node.slot_of_id ctx nid) (o_slot_of ctx nid);
      expect "slot_of_id slot" ctx (Node.slot_of_id ctx nid) slot;
      let src = ctx.Node.neighbors.(slot) in
      expect "slot_of_node" ctx (Node.slot_of_node ctx src) (o_slot_of_node ctx src);
      expect "of_src" ctx (Graph_id.of_src ctx src) nid)
    ctx.Node.neighbor_ids;
  (* Absent identifiers and nodes, below, between and above the present
     ones. *)
  List.iter
    (fun x ->
      expect "slot_of_id absent" ctx (Node.slot_of_id ctx x) (o_slot_of ctx x);
      expect "slot_of_node absent" ctx (Node.slot_of_node ctx x) (o_slot_of_node ctx x);
      if o_slot_of_node ctx x < 0 then
        match Graph_id.of_src ctx x with
        | _ -> fail_at "of_src accepted a non-neighbour" ctx
        | exception Invalid_argument _ -> ())
    [ -1; ctx.Node.id; ctx.Node.n; 2 * ctx.Node.n; ctx.Node.n / 2 ]

let ctxs_of graph =
  Array.init (Graph.n graph) (fun v ->
      let neighbors = Graph.neighbors graph v in
      Node.make_ctx ~node:v ~id:(Graph.id graph v) ~n:(Graph.n graph) ~neighbors
        ~neighbor_ids:(Array.map (Graph.id graph) neighbors)
        ~send:(fun _ _ -> ())
        ())

let random_view rng ctx =
  let n = ctx.Node.n in
  (* Draw identifiers mostly from the neighbourhood and the node itself so
     children, parents and root ties actually occur. *)
  let rand_id () =
    let d = Array.length ctx.Node.neighbor_ids in
    match Prng.int rng 4 with
    | 0 -> ctx.Node.id
    | 1 when d > 0 -> ctx.Node.neighbor_ids.(Prng.int rng d)
    | _ -> Prng.int rng (2 * n)
  in
  {
    State.w_root = rand_id ();
    w_parent = rand_id ();
    w_dist = Prng.int rng (2 * n);
    w_deg = Prng.int rng 4;
    w_dmax = Prng.int rng 3;
    w_color = Prng.bool rng;
    w_subtree_max = Prng.int rng 4;
    w_fresh = Prng.int rng 5 > 0;
  }

let info_of_view (v : State.view) =
  {
    Msg.i_root = v.State.w_root;
    i_parent = v.w_parent;
    i_dist = v.w_dist;
    i_deg = v.w_deg;
    i_dmax = v.w_dmax;
    i_color = v.w_color;
    i_subtree_max = v.w_subtree_max;
  }

(* One random mirror update, through the protocol where it has a handler
   for it: an Info receipt ([update_view]), an UpdateDist from the parent
   ([patch_view]), a direct patch of a slot's parent/distance, a slot
   rewritten with its own value, or a random whole-state change. *)
let step rng ctx st =
  let d = Array.length ctx.Node.neighbors in
  if d = 0 then st
  else
    let slot = Prng.int rng d in
    let src = ctx.Node.neighbors.(slot) in
    match Prng.int rng 6 with
    | 0 | 1 -> P.on_message ctx st ~src (Msg.Info (info_of_view (random_view rng ctx)))
    | 2 ->
        let ps = Node.slot_of_id ctx st.State.parent in
        if ps < 0 then st
        else
          P.on_message ctx st ~src:ctx.Node.neighbors.(ps)
            (Msg.Update_dist { u_dist = Prng.int rng ctx.Node.n; u_ttl = 1 })
    | 3 ->
        let v = State.Views.get st.State.views slot in
        State.set_view ctx st slot
          {
            v with
            State.w_parent = (random_view rng ctx).State.w_parent;
            w_dist = Prng.int rng 4;
            w_fresh = true;
          }
    | 4 ->
        let st' = State.set_view ctx st slot (State.Views.get st.State.views slot) in
        if st' != st then Alcotest.fail "rewriting a slot with its own view copied the state";
        st'
    | _ ->
        let parent =
          if Prng.bool rng then ctx.Node.neighbor_ids.(Prng.int rng d) else ctx.Node.id
        in
        {
          st with
          State.root = Prng.int rng (2 * ctx.Node.n);
          parent;
          dist = Prng.int rng 3;
          dmax = Prng.int rng 3;
          color = Prng.bool rng;
        }

let exercise ~seed ~steps graph =
  let rng = Prng.create seed in
  let ctxs = ctxs_of graph in
  Array.iter check_lookups ctxs;
  Array.iter
    (fun ctx ->
      List.iter
        (fun st0 ->
          let st = ref st0 in
          check_state ctx !st;
          for _ = 1 to steps do
            st := step rng ctx !st;
            check_state ctx !st
          done)
        [ State.clean ctx; State.random ctx rng; State.random ctx rng ])
    ctxs

let test_random_graphs () =
  let rng = Prng.create 2024 in
  for i = 0 to 5 do
    let g = Gen.erdos_renyi_connected rng ~n:(8 + (3 * i)) ~p:0.35 in
    (* Permuted identifiers: the id order differs from the slot order, so
       the sorted slot index is exercised, not only the identity. *)
    exercise ~seed:i ~steps:40 (Gen.with_random_ids rng g);
    exercise ~seed:(100 + i) ~steps:40 g
  done

let test_large_star () =
  let rng = Prng.create 7 in
  let star = Gen.star 600 in
  exercise ~seed:3 ~steps:150 (Gen.with_random_ids rng star);
  exercise ~seed:4 ~steps:150 star

let test_isolated_node () =
  (* d = 0: the agreement predicates hold vacuously, there are no
     children, and every lookup misses. *)
  let ctx = (ctxs_of (Graph.empty 1)).(0) in
  check_lookups ctx;
  let rng = Prng.create 5 in
  List.iter
    (fun st ->
      check_state ctx st;
      check_state ctx { st with State.dmax = 7; color = true })
    [ State.clean ctx; State.random ctx rng ];
  Alcotest.(check bool) "vacuous agreement" true (State.degree_stabilized (State.clean ctx))

let test_make_ctx_rejects () =
  let make ~neighbors ~neighbor_ids =
    Node.make_ctx ~node:0 ~id:0 ~n:8 ~neighbors ~neighbor_ids ~send:(fun _ _ -> ()) ()
  in
  let rejects name f =
    Alcotest.(check bool)
      name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "unsorted neighbours" (fun () -> make ~neighbors:[| 3; 1 |] ~neighbor_ids:[| 3; 1 |]);
  rejects "repeated neighbour" (fun () -> make ~neighbors:[| 1; 1 |] ~neighbor_ids:[| 1; 2 |]);
  rejects "repeated identifier" (fun () -> make ~neighbors:[| 1; 2 |] ~neighbor_ids:[| 5; 5 |]);
  rejects "own identifier" (fun () -> make ~neighbors:[| 1; 2 |] ~neighbor_ids:[| 0; 5 |]);
  rejects "length mismatch" (fun () -> make ~neighbors:[| 1; 2 |] ~neighbor_ids:[| 5 |]);
  let ctx = make ~neighbors:[| 1; 4; 6 |] ~neighbor_ids:[| 9; 2; 5 |] in
  Alcotest.(check (list int)) "id index" [ 0; 1; 2 ]
    (List.map (Node.slot_of_id ctx) [ 9; 2; 5 ])

(* ---------------- degree-flatness ---------------- *)

(* A star hub already at its recompute fixpoint: root of the star, every
   leaf a fresh child agreeing on dmax = d and the colour.  An Info that
   repeats a leaf's mirror must then leave the state physically unchanged
   and allocate nothing, whatever d is: no slot scan, no copy, no option. *)
let hub_at_fixpoint d =
  let nbrs = Array.init d (fun k -> k + 1) in
  let ctx =
    Node.make_ctx ~node:0 ~id:0 ~n:(d + 1) ~neighbors:nbrs ~neighbor_ids:nbrs
      ~send:(fun _ _ -> ())
      ()
  in
  let leaf =
    {
      State.w_root = 0;
      w_parent = 0;
      w_dist = 1;
      w_deg = 1;
      w_dmax = d;
      w_color = false;
      w_subtree_max = 1;
      w_fresh = true;
    }
  in
  let st =
    {
      (State.clean ctx) with
      State.dmax = d;
      subtree_max = d;
      views = State.views_of_array ctx (Array.make d leaf);
    }
  in
  (ctx, st, Msg.Info (info_of_view leaf))

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_unchanged_info_allocates_nothing () =
  List.iter
    (fun d ->
      let ctx, st, info = hub_at_fixpoint d in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d: fixpoint is kept" d)
        true
        (P.on_message ctx st ~src:d info == st);
      let receipts () =
        for k = 1 to 1000 do
          ignore (Sys.opaque_identity (P.on_message ctx st ~src:(1 + (k mod d)) info))
        done
      in
      receipts ();
      let overhead = minor_words (fun () -> ()) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "d=%d: minor words for 1000 unchanged Infos" d)
        overhead (minor_words receipts))
    [ 4; 64; 1023 ]

let () =
  Alcotest.run "views"
    [
      ( "summary vs oracle",
        [
          Alcotest.test_case "random graphs" `Quick test_random_graphs;
          Alcotest.test_case "star d=599" `Quick test_large_star;
          Alcotest.test_case "isolated node" `Quick test_isolated_node;
          Alcotest.test_case "make_ctx rejects" `Quick test_make_ctx_rejects;
        ] );
      ( "degree-flat",
        [
          Alcotest.test_case "unchanged Info allocates nothing" `Quick
            test_unchanged_info_allocates_nothing;
        ]
      );
    ]
