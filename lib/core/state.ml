(* Per-node protocol state and the predicates of paper §3.1.

   The send/receive atomicity model gives every node a mirror of its
   neighbours' public variables, refreshed by Info messages; [view] is that
   mirror.  Everything a predicate reads comes either from the node's own
   variables or from this mirror — never from global knowledge. *)

module Sizing = Mdst_util.Sizing

type view = {
  w_root : int;
  w_parent : int;
  w_dist : int;
  w_deg : int;
  w_dmax : int;
  w_color : bool;
  w_subtree_max : int;
  w_fresh : bool;  (* has an Info arrived from this neighbour yet *)
}

let unknown_view = {
  w_root = max_int;
  w_parent = max_int;
  w_dist = 0;
  w_deg = 0;
  w_dmax = 0;
  w_color = false;
  w_subtree_max = 0;
  w_fresh = false;
}

(* The mirror of all neighbours, one view per slot, plus a summary of it
   computed for the owning node.  The summary answers the per-receipt
   questions (children, R2 argmin, mirror agreement) in O(1), where a scan
   of the array costs O(d) on every receipt.  It is a pure function of the
   array and the owner ([id], [n], neighbour identifiers), computed by
   every constructor ([of_array], [set], [unknown]), so it cannot go stale
   and [=] on states compares exactly what it compared on bare arrays. *)
module Views = struct
  type t = {
    arr : view array;
    children : int;  (* fresh views whose parent is the owner *)
    child_stm : int;  (* max w_subtree_max over those; min_int if none *)
    best : int;  (* slot of the min (w_root, id) fresh view with w_dist < n; -1 if none *)
    same_dmax : bool;  (* every view fresh with arr.(0)'s w_dmax (vacuous at d = 0) *)
    same_color : bool;  (* likewise for w_color *)
  }

  let view_equal (a : view) b =
    a.w_root = b.w_root && a.w_parent = b.w_parent && a.w_dist = b.w_dist && a.w_deg = b.w_deg
    && a.w_dmax = b.w_dmax && a.w_color = b.w_color && a.w_subtree_max = b.w_subtree_max
    && a.w_fresh = b.w_fresh

  let summarize ~id ~n ~ids arr =
    let d = Array.length arr in
    if Array.length ids <> d then invalid_arg "State.Views: one view per neighbour expected";
    let children = ref 0 and child_stm = ref min_int and best = ref (-1) in
    let same_dmax = ref true and same_color = ref true in
    for k = 0 to d - 1 do
      let v = arr.(k) in
      if not v.w_fresh then begin
        same_dmax := false;
        same_color := false
      end
      else begin
        if v.w_parent = id then begin
          incr children;
          if v.w_subtree_max > !child_stm then child_stm := v.w_subtree_max
        end;
        if
          v.w_dist < n
          && (!best < 0
             ||
             let b = arr.(!best) in
             v.w_root < b.w_root || (v.w_root = b.w_root && ids.(k) < ids.(!best)))
        then best := k;
        if v.w_dmax <> arr.(0).w_dmax then same_dmax := false;
        if v.w_color <> arr.(0).w_color then same_color := false
      end
    done;
    {
      arr;
      children = !children;
      child_stm = !child_stm;
      best = !best;
      same_dmax = !same_dmax;
      same_color = !same_color;
    }

  let of_array ~id ~n ~ids arr = summarize ~id ~n ~ids (Array.copy arr)

  (* [summarize] of [d] never-heard-from views, without the scan: every
     engine set-up builds one per node. *)
  let unknown d =
    {
      arr = Array.make d unknown_view;
      children = 0;
      child_stm = min_int;
      best = -1;
      same_dmax = d = 0;
      same_color = d = 0;
    }

  let set ~id ~n ~ids t slot v =
    if view_equal t.arr.(slot) v then t
    else begin
      let arr = Array.copy t.arr in
      arr.(slot) <- v;
      summarize ~id ~n ~ids arr
    end

  let get t slot = t.arr.(slot)
  let length t = Array.length t.arr
  let to_array t = Array.copy t.arr
end

(* A pending swap this node is a segment participant of.  [busy_ttl] decays
   every tick so a corrupted or abandoned lock always clears. *)
type pending = { p_edge : int * int; p_target : int * int; p_ttl : int }

type t = {
  root : int;  (* believed tree-root identifier *)
  parent : int;  (* parent id; own id when (believed) root *)
  dist : int;
  dmax : int;  (* believed degree of the tree, deg(T) *)
  color : bool;  (* flips at the root whenever dmax changes *)
  subtree_max : int;  (* PIF feedback: max tree-degree in my subtree *)
  views : Views.t;  (* one slot per neighbour, same order as ctx.neighbors *)
  pending : pending option;
  deblock : (int * int) option;  (* (idblock, remaining ticks) *)
  search_cursor : int;  (* rotates over neighbour slots for Search starts *)
  (* Info dirty-bit suppression bookkeeping (inert — None/0 — unless the
     config enables suppression): the public-variable snapshot last
     gossiped and the ticks elapsed since, driving the periodic refresh
     that keeps stabilization under a corrupted cache. *)
  last_info : Msg.info option;
  info_age : int;
}

(* [arr] must be fresh: it is not copied. *)
let own_views ctx arr =
  Views.summarize ~id:ctx.Mdst_sim.Node.id ~n:ctx.n ~ids:ctx.neighbor_ids arr

let views_of_array ctx arr = own_views ctx (Array.copy arr)

let set_view ctx st slot v =
  let views =
    Views.set ~id:ctx.Mdst_sim.Node.id ~n:ctx.n ~ids:ctx.neighbor_ids st.views slot v
  in
  if views == st.views then st else { st with views }

(* --- Local tree structure, derived from own vars + mirror ---------------- *)

let is_child ctx (v : view) = v.w_fresh && v.w_parent = ctx.Mdst_sim.Node.id

(* is_tree_edge(v, u) = parent_v = ID_u or parent_u = ID_v (paper §3.1). *)
let is_tree_edge ctx st slot =
  st.parent = ctx.Mdst_sim.Node.neighbor_ids.(slot) || is_child ctx st.views.arr.(slot)

(* The children counted by the summary, plus the parent edge unless the
   parent's mirror also names us (then it is already counted).  A root
   skips the lookup: no neighbour carries its own identifier. *)
let tree_degree ctx st =
  if st.parent = ctx.Mdst_sim.Node.id then st.views.children
  else
    let ps = Mdst_sim.Node.slot_of_id ctx st.parent in
    if ps >= 0 && not (is_child ctx st.views.arr.(ps)) then st.views.children + 1
    else st.views.children

let tree_children_slots ctx st =
  let acc = ref [] in
  for slot = Views.length st.views - 1 downto 0 do
    if is_child ctx st.views.arr.(slot) then acc := slot :: !acc
  done;
  !acc

let pif_subtree_max ctx st = max (tree_degree ctx st) st.views.child_stm

(* --- Paper predicates ----------------------------------------------------- *)

(* paper-gap: the paper's simplified BFS module is vulnerable to
   count-to-infinity — a cluster of nodes can sustain a phantom root claim
   while their distances grow without bound (we reproduced this livelock
   before adding the guard).  The standard repair, consistent with the
   paper's O(log n)-bit distance fields, is to bound distances by the known
   upper bound on the network size: claims with dist >= n are ignored and
   holding one makes the node a new-root candidate. *)

(* The stabilization predicates run on every tick, every Info receipt and
   every Search hop; they read the summary and the id index, so they
   allocate nothing and cost O(log d) at most. *)
let better_parent_slot _ctx st =
  let b = st.views.best in
  if b >= 0 && st.views.arr.(b).w_root < st.root then b else -1

let better_parent ctx st = better_parent_slot ctx st >= 0

let coherent_parent ctx st =
  if st.parent = ctx.Mdst_sim.Node.id then st.root = ctx.id
  else
    let slot = Mdst_sim.Node.slot_of_id ctx st.parent in
    slot >= 0
    &&
    let v = st.views.arr.(slot) in
    (not v.w_fresh) || v.w_root = st.root

let coherent_distance ctx st =
  if st.parent = ctx.Mdst_sim.Node.id then st.dist = 0
  else
    st.dist >= 0
    && st.dist <= ctx.Mdst_sim.Node.n
    &&
    let slot = Mdst_sim.Node.slot_of_id ctx st.parent in
    slot >= 0
    &&
    let v = st.views.arr.(slot) in
    (not v.w_fresh) || st.dist = v.w_dist + 1

let new_root_candidate ctx st =
  (not (coherent_parent ctx st))
  || (not (coherent_distance ctx st))
  || st.root > ctx.Mdst_sim.Node.id (* own id would already be a better root *)

let tree_stabilized ctx st = (not (better_parent ctx st)) && not (new_root_candidate ctx st)

let degree_stabilized st =
  st.views.same_dmax && (Views.length st.views = 0 || st.views.arr.(0).w_dmax = st.dmax)

let color_stabilized st =
  st.views.same_color && (Views.length st.views = 0 || st.views.arr.(0).w_color = st.color)

let locally_stabilized ctx st =
  tree_stabilized ctx st && degree_stabilized st && color_stabilized st

(* --- Construction --------------------------------------------------------- *)

let clean ctx =
  let deg = Array.length ctx.Mdst_sim.Node.neighbors in
  {
    root = ctx.Mdst_sim.Node.id;
    parent = ctx.id;
    dist = 0;
    dmax = 0;
    color = false;
    subtree_max = 0;
    views = Views.unknown deg;
    pending = None;
    deblock = None;
    search_cursor = 0;
    last_info = None;
    info_age = 0;
  }

(* The self-stabilization adversary: any variable can hold any (type-correct)
   value, mirrors included. *)
let random ?(suppression = false) ctx rng =
  let module P = Mdst_util.Prng in
  let deg = Array.length ctx.Mdst_sim.Node.neighbors in
  let rand_id () = P.int rng (max 1 (2 * ctx.Mdst_sim.Node.n)) in
  let rand_view () =
    {
      w_root = rand_id ();
      w_parent = rand_id ();
      w_dist = P.int rng (2 * ctx.n);
      w_deg = P.int rng (deg + 2);
      w_dmax = P.int rng (ctx.n + 1);
      w_color = P.bool rng;
      w_subtree_max = P.int rng (ctx.n + 1);
      w_fresh = P.bool rng;
    }
  in
  {
    root = rand_id ();
    parent =
      (if deg > 0 && P.bool rng then ctx.neighbor_ids.(P.int rng deg)
       else if P.bool rng then ctx.id
       else rand_id ());
    dist = P.int rng (2 * ctx.n);
    dmax = P.int rng (ctx.n + 1);
    color = P.bool rng;
    subtree_max = P.int rng (ctx.n + 1);
    views = own_views ctx (Array.init deg (fun _ -> rand_view ()));
    pending =
      (if P.bool rng then None
       else
         Some
           {
             p_edge = (rand_id (), rand_id ());
             p_target = (rand_id (), rand_id ());
             p_ttl = P.int rng 8;
           });
    deblock = (if P.bool rng then None else Some (rand_id (), P.int rng 8));
    search_cursor = (if deg = 0 then 0 else P.int rng deg);
    (* Extra draws ONLY in suppression mode, and placed after every other
       field: configurations without suppression keep a bit-identical
       draw sequence, which the exact-replay fault goldens depend on. *)
    last_info =
      (if suppression && P.bool rng then
         Some
           {
             Msg.i_root = rand_id ();
             i_parent = rand_id ();
             i_dist = P.int rng (2 * ctx.n);
             i_deg = P.int rng (deg + 2);
             i_dmax = P.int rng (ctx.n + 1);
             i_color = P.bool rng;
             i_subtree_max = P.int rng (ctx.n + 1);
           }
       else None);
    info_age = (if suppression then P.int rng 16 else 0);
  }

(* --- Metering (experiment E5) --------------------------------------------- *)

let bits ~n st =
  let id = Sizing.id_bits ~n in
  let own = (5 * id) + Sizing.bool_bits + (3 * id) (* pending + deblock + cursor *) in
  let per_view = (6 * id) + (2 * Sizing.bool_bits) in
  (* Suppression cache: the snapshot (6 ids + colour) plus the age
     counter, only when the mode is on and a snapshot is held. *)
  let suppression =
    match st.last_info with None -> 0 | Some _ -> (7 * id) + Sizing.bool_bits
  in
  own + (Views.length st.views * per_view) + suppression

let pp ctx ppf st =
  Format.fprintf ppf "{id=%d root=%d parent=%d dist=%d deg=%d dmax=%d stm=%d%s%s}"
    ctx.Mdst_sim.Node.id st.root st.parent st.dist (tree_degree ctx st) st.dmax st.subtree_max
    (match st.pending with Some _ -> " busy" | None -> "")
    (match st.deblock with Some (w, _) -> Printf.sprintf " deblock=%d" w | None -> "")
