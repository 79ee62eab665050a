(* Transport-to-protocol translation.

   The simulator addresses nodes by dense index; the algorithm reasons only
   about protocol identifiers.  These helpers are the single crossing point
   so that the protocol cannot accidentally depend on the transport
   numbering (tests run with permuted identifiers to enforce this). *)

(* The sender's neighbour slot: a binary search of [ctx.neighbors], which
   {!Mdst_sim.Node.make_ctx} guarantees sorted. *)
let slot_of_src ctx src =
  let slot = Mdst_sim.Node.slot_of_node ctx src in
  if slot < 0 then invalid_arg "Graph_id.of_src: sender is not a neighbour" else slot

let of_src ctx src = ctx.Mdst_sim.Node.neighbor_ids.(slot_of_src ctx src)
