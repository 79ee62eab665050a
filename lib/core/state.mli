(** Per-node protocol state and the predicates of paper §3.1.

    The send/receive atomicity model gives every node a mirror of its
    neighbours' public variables, refreshed by Info messages; {!view} is
    that mirror.  Everything a predicate reads comes either from the node's
    own variables or from this mirror — never from global knowledge (the
    global view lives in {!Checker} and is only used by the harness). *)

(** Mirror of one neighbour's public variables. *)
type view = {
  w_root : int;
  w_parent : int;
  w_dist : int;
  w_deg : int;
  w_dmax : int;
  w_color : bool;
  w_subtree_max : int;
  w_fresh : bool;  (** has any Info arrived from this neighbour yet *)
}

(** The whole mirror: one {!view} per neighbour slot, plus a summary of
    it computed for the owning node (its identifier, [n] and neighbour
    identifiers), from which {!tree_degree}, {!better_parent},
    {!better_parent_slot}, {!pif_subtree_max} and {!locally_stabilized}
    answer in O(log d) rather than O(d).

    Invariants: the summary is a pure function of the array and the owner,
    and the type is abstract: outside this module {!Views.of_array} and
    {!Views.set} are its only constructors (plus {!clean} and {!random}),
    so the summary can never be stale, and [=] on two states of the same
    node holds exactly when their arrays are equal.
    A value belongs to one owner: building it with one node's identifiers
    and reading it through another's context gives wrong answers. *)
module Views : sig
  type t

  val of_array : id:int -> n:int -> ids:int array -> view array -> t
  (** [of_array ~id ~n ~ids a]: the mirror [a] (copied) of the node with
      identifier [id] in a network of size [n] whose neighbour identifiers,
      slot by slot, are [ids].  Raises [Invalid_argument] unless
      [a] and [ids] have the same length.  O(d). *)

  val set : id:int -> n:int -> ids:int array -> t -> int -> view -> t
  (** [set ~id ~n ~ids t slot v]: [t] with slot [slot] replaced by [v].
      Returns [t] itself (no copy) when the slot already holds [v]; else
      copies the array and recomputes the summary, O(d). *)

  val get : t -> int -> view

  val length : t -> int

  val to_array : t -> view array
  (** A fresh copy of the mirror. *)
end

(** A pending swap this node is a segment participant of.  [p_ttl] decays
    every tick so a corrupted or abandoned lock always clears. *)
type pending = { p_edge : int * int; p_target : int * int; p_ttl : int }

type t = {
  root : int;  (** believed tree-root identifier *)
  parent : int;  (** parent id; own id when (believed) root *)
  dist : int;
  dmax : int;  (** believed degree of the tree, deg(T) *)
  color : bool;  (** flips at the root whenever dmax changes (§3.2.3) *)
  subtree_max : int;  (** PIF feedback: max tree degree in my subtree *)
  views : Views.t;  (** one slot per neighbour, in [ctx.neighbors] order *)
  pending : pending option;
  deblock : (int * int) option;  (** (idblock, remaining ticks) *)
  search_cursor : int;  (** rotates over neighbour slots for Search starts *)
  last_info : Msg.info option;
      (** Info dirty-bit suppression: snapshot of the public variables as
          last gossiped.  Inert ([None]) unless the protocol config enables
          suppression. *)
  info_age : int;  (** ticks since the last actual Info broadcast *)
}

val unknown_view : view
(** The not-yet-heard-from mirror ([w_fresh = false]). *)

val views_of_array : 'msg Mdst_sim.Node.ctx -> view array -> Views.t
(** {!Views.of_array} for the node of [ctx]. *)

val set_view : 'msg Mdst_sim.Node.ctx -> t -> int -> view -> t
(** [set_view ctx st slot v]: [st] with mirror slot [slot] replaced by [v];
    [st] itself when nothing changes. *)

(** {1 Derived tree structure} *)

val is_tree_edge : 'msg Mdst_sim.Node.ctx -> t -> int -> bool
(** [is_tree_edge ctx st slot] — the paper's
    [parent_v = ID_u or parent_u = ID_v], evaluated on own state + mirror. *)

val tree_degree : 'msg Mdst_sim.Node.ctx -> t -> int
(** Number of tree edges at this node, per {!is_tree_edge}.  O(log d). *)

val tree_children_slots : 'msg Mdst_sim.Node.ctx -> t -> int list
(** Slots of neighbours whose mirrored parent pointer designates us. *)

val pif_subtree_max : 'msg Mdst_sim.Node.ctx -> t -> int
(** The PIF feedback value: the max of {!tree_degree} and every fresh
    child's mirrored [w_subtree_max].  O(log d). *)

(** {1 Paper predicates (§3.1)} *)

val better_parent : 'msg Mdst_sim.Node.ctx -> t -> bool
(** A fresh neighbour claims a strictly smaller root (with an in-bound
    distance — see the count-to-infinity note in the implementation). *)

val better_parent_slot : 'msg Mdst_sim.Node.ctx -> t -> int
(** The neighbour rule R2 adopts: the slot minimising (root, identifier)
    over fresh mirrors with an in-bound distance, when its root is below
    ours; [-1] when {!better_parent} is false. *)

val coherent_parent : 'msg Mdst_sim.Node.ctx -> t -> bool

val coherent_distance : 'msg Mdst_sim.Node.ctx -> t -> bool

val new_root_candidate : 'msg Mdst_sim.Node.ctx -> t -> bool

val tree_stabilized : 'msg Mdst_sim.Node.ctx -> t -> bool

val degree_stabilized : t -> bool

val color_stabilized : t -> bool

val locally_stabilized : 'msg Mdst_sim.Node.ctx -> t -> bool
(** The freeze condition: reductions only proceed from here (§3.2.3). *)

(** {1 Construction} *)

val clean : 'msg Mdst_sim.Node.ctx -> t
(** Factory state: own root, empty mirror. *)

val random : ?suppression:bool -> 'msg Mdst_sim.Node.ctx -> Mdst_util.Prng.t -> t
(** The self-stabilization adversary: every variable, mirror included,
    takes an arbitrary (type-correct) value.  With [~suppression:true]
    the gossip-suppression cache ([last_info] / [info_age]) is also drawn
    arbitrarily — the extra draws happen only in that mode, so existing
    exact-replay executions are unaffected. *)

(** {1 Metering / debug} *)

val bits : n:int -> t -> int
(** Idealised state size; O(δ log n) per Lemma 5, metered by E5. *)

val pp : 'msg Mdst_sim.Node.ctx -> Format.formatter -> t -> unit
