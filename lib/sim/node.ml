(* Node automaton interface: the contract between a distributed protocol and
   the simulation engine.

   A node is a deterministic state machine driven by two kinds of events:

   - [on_tick]: the periodic local timer.  The paper's "Do forever: send
     InfoMsg to all neighbours" loop lives here.
   - [on_message]: receipt of one message from one neighbour.  Together with
     the sends performed inside the handler this is exactly the paper's
     send/receive atomicity: an atomic step is one local computation plus
     the communication operations it triggers.

   Handlers communicate only through [ctx.send], which enqueues onto the
   FIFO channel towards a neighbour.  Handlers must not retain [ctx] beyond
   the call. *)

type 'msg ctx = {
  node : int;  (** dense node index in the topology *)
  id : int;  (** protocol identifier (unique, totally ordered) *)
  n : int;  (** network size — metering only; protocol code must not use it *)
  neighbors : int array;
      (** node indices of the one-hop neighbourhood, strictly increasing
          (the order {!Mdst_graph.Graph.neighbors} returns) *)
  neighbor_ids : int array;  (** their protocol identifiers, same order *)
  id_slots : int array;
      (** slot indices ordered by increasing [neighbor_ids]: the index
          {!slot_of_id} binary-searches; empty when [neighbor_ids] is itself
          increasing (then it is searched directly).  Built by {!make_ctx}. *)
  send : int -> 'msg -> unit;  (** [send dst msg]; [dst] must be a neighbour *)
  note_suppressed : int -> unit;
      (** [note_suppressed k]: the handler elided [k] sends it proved
          redundant (Info dirty-bit suppression) — metering only, no
          protocol-visible effect *)
  rng : Mdst_util.Prng.t;  (** node-local deterministic randomness *)
  now : unit -> float;  (** virtual time, for tracing only *)
}

(* Both lookups are top-level tail-recursive functions over explicit,
   int-typed arguments (not local closures, not polymorphic compares), so a
   lookup allocates nothing and compares machine words: they run on every
   message receipt. *)
let rec search_sorted (a : int array) (x : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let y = a.(mid) in
    if y = x then mid
    else if y < x then search_sorted a x (mid + 1) hi
    else search_sorted a x lo mid

let rec search_slots (slots : int array) (ids : int array) (x : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let s = slots.(mid) in
    let y = ids.(s) in
    if y = x then s
    else if y < x then search_slots slots ids x (mid + 1) hi
    else search_slots slots ids x lo mid

(** [slot_of_node ctx v]: the slot of node index [v] in [ctx.neighbors],
    or [-1] if [v] is not a neighbour.  O(log d), allocation-free. *)
let slot_of_node ctx v = search_sorted ctx.neighbors v 0 (Array.length ctx.neighbors)

(** [slot_of_id ctx id]: the slot of the neighbour with protocol identifier
    [id], or [-1] if none.  O(log d), allocation-free. *)
let slot_of_id ctx id =
  if Array.length ctx.id_slots = 0 then
    search_sorted ctx.neighbor_ids id 0 (Array.length ctx.neighbor_ids)
  else search_slots ctx.id_slots ctx.neighbor_ids id 0 (Array.length ctx.id_slots)

(** The one constructor of contexts.  Rejects a [neighbors] array that is
    not strictly increasing (the slot lookups binary-search it) and
    repeated or own neighbour identifiers, and builds the identifier index
    once: O(d) when the identifiers are already increasing, as with the
    default identifiers, else O(d log d). *)
let make_ctx ?(note_suppressed = fun _ -> ()) ?(rng = Mdst_util.Prng.create 0)
    ?(now = fun () -> 0.0) ~node ~id ~n ~neighbors ~neighbor_ids ~send () =
  let d = Array.length neighbors in
  if Array.length neighbor_ids <> d then
    invalid_arg "Node.make_ctx: neighbors and neighbor_ids differ in length";
  let ids_increasing = ref true in
  for k = 0 to d - 1 do
    if neighbor_ids.(k) = id then invalid_arg "Node.make_ctx: a node cannot neighbour itself";
    if k > 0 then begin
      if neighbors.(k - 1) >= neighbors.(k) then
        invalid_arg "Node.make_ctx: neighbors must be strictly increasing";
      if neighbor_ids.(k - 1) >= neighbor_ids.(k) then ids_increasing := false
    end
  done;
  let id_slots =
    if !ids_increasing then [||]
    else begin
      let slots = Array.init d Fun.id in
      Array.sort (fun a b -> Int.compare neighbor_ids.(a) neighbor_ids.(b)) slots;
      for k = 1 to d - 1 do
        if neighbor_ids.(slots.(k - 1)) = neighbor_ids.(slots.(k)) then
          invalid_arg "Node.make_ctx: repeated neighbour identifier"
      done;
      slots
    end
  in
  { node; id; n; neighbors; neighbor_ids; id_slots; send; note_suppressed; rng; now }

module type AUTOMATON = sig
  type state
  type msg

  val name : string

  val init : msg ctx -> state
  (** Clean cold-start state (the "designed" initial configuration). *)

  val random_state : msg ctx -> Mdst_util.Prng.t -> state
  (** An arbitrary (possibly inconsistent) state: the adversary of the
      self-stabilization definition.  Must cover the whole reachable state
      space shape-wise, not just legal values. *)

  val random_msg : msg ctx -> Mdst_util.Prng.t -> msg option
  (** An arbitrary in-flight message for channel corruption, or [None] if
      the protocol does not model channel corruption. *)

  val on_tick : msg ctx -> state -> state

  val on_message : msg ctx -> state -> src:int -> msg -> state

  val msg_label : msg -> string
  (** Coarse message family ("info", "search", ...) for metering. *)

  val msg_bits : n:int -> msg -> int
  (** Idealised encoded size, per the paper's O(.) accounting. *)

  val state_bits : n:int -> state -> int
  (** Idealised per-node memory, per the paper's O(.) accounting. *)
end
