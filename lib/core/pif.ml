module Node = Mdst_sim.Node
module P = Mdst_util.Prng
module Sizing = Mdst_util.Sizing

module type INPUT = sig
  val parent_of : int -> int

  val value_of : int -> int

  val combine : int -> int -> int

  val neutral : int
end

type state = {
  seq : int;
  waiting : int list;
  acc : int;
  result : int option;
  ticks_stalled : int;
}

type msg = Go of { g_seq : int; g_result : int option } | Back of { b_seq : int; b_acc : int }

let completed_waves st = st.result <> None

module Make (I : INPUT) = struct
  type nonrec state = state

  type nonrec msg = msg

  let name = "pif"

  (* [I.parent_of] is fixed at functor application (the PIF runs over a
     static tree), so each node's child list is computed once and reused:
     waves restart every few ticks and the per-wave Array.to_list +
     filter was a measurable allocation at scale. *)
  let children_cache : (int, int list) Hashtbl.t = Hashtbl.create 64

  let children_ids ctx =
    match Hashtbl.find_opt children_cache ctx.Node.node with
    | Some children -> children
    | None ->
        let children =
          Array.to_list ctx.Node.neighbor_ids |> List.filter (fun u -> I.parent_of u = ctx.Node.id)
        in
        Hashtbl.add children_cache ctx.Node.node children;
        children

  let is_root ctx = I.parent_of ctx.Node.id = ctx.Node.id

  let send_to_id ctx uid m =
    let slot = Node.slot_of_id ctx uid in
    if slot >= 0 then ctx.Node.send ctx.Node.neighbors.(slot) m

  let init ctx =
    ignore ctx;
    { seq = 0; waiting = []; acc = I.neutral; result = None; ticks_stalled = 0 }

  let random_state ctx rng =
    {
      seq = P.int rng 16;
      waiting =
        List.filter (fun _ -> P.bool rng) (Array.to_list ctx.Node.neighbor_ids)
        @ (if P.bool rng then [ P.int rng (2 * ctx.Node.n) ] else []);
      acc = P.int rng 64;
      result = (if P.bool rng then Some (P.int rng 64) else None);
      ticks_stalled = P.int rng 8;
    }

  let random_msg ctx rng =
    ignore ctx;
    if P.bool rng then Some (Go { g_seq = P.int rng 16; g_result = Some (P.int rng 64) })
    else Some (Back { b_seq = P.int rng 16; b_acc = P.int rng 64 })

  (* The root restarts a wedged wave after this many quiet ticks; any
     corrupted waiting-set or lost sub-wave is flushed by the restart. *)
  let stall_limit ctx = 4 + (6 * ctx.Node.n)

  let begin_wave ctx st ~seq =
    let children = children_ids ctx in
    let acc = I.combine I.neutral (I.value_of ctx.Node.id) in
    List.iter (fun c -> send_to_id ctx c (Go { g_seq = seq; g_result = st.result })) children;
    { st with seq; waiting = children; acc; ticks_stalled = 0 }

  let finish_up ctx st =
    if is_root ctx then { st with result = Some st.acc }
    else begin
      send_to_id ctx (I.parent_of ctx.Node.id) (Back { b_seq = st.seq; b_acc = st.acc });
      st
    end

  let on_tick ctx st =
    if not (is_root ctx) then st
    else if st.waiting = [] then
      (* Previous wave complete (or cold start): publish and relaunch. *)
      let st = if st.seq > 0 then { st with result = Some st.acc } else st in
      let st = begin_wave ctx st ~seq:(st.seq + 1) in
      if st.waiting = [] then { st with result = Some st.acc } else st
    else begin
      let st = { st with ticks_stalled = st.ticks_stalled + 1 } in
      if st.ticks_stalled > stall_limit ctx then begin_wave ctx st ~seq:(st.seq + 1) else st
    end

  let on_message ctx st ~src m =
    let sender = Graph_id.of_src ctx src in
    match m with
    | Go { g_seq; g_result } ->
        if is_root ctx || sender <> I.parent_of ctx.Node.id then st
        else begin
          let st = { st with result = (match g_result with Some _ -> g_result | None -> st.result) } in
          let st = begin_wave ctx st ~seq:g_seq in
          if st.waiting = [] then finish_up ctx st else st
        end
    | Back { b_seq; b_acc } ->
        if b_seq <> st.seq || not (List.mem sender st.waiting) then st
        else begin
          let st =
            {
              st with
              waiting = List.filter (fun c -> c <> sender) st.waiting;
              acc = I.combine st.acc b_acc;
              ticks_stalled = 0;
            }
          in
          if st.waiting = [] then finish_up ctx st else st
        end

  let msg_label = function Go _ -> "pif-go" | Back _ -> "pif-back"

  let msg_bits ~n = function
    | Go _ -> 2 * Sizing.id_bits ~n
    | Back _ -> 2 * Sizing.id_bits ~n

  let state_bits ~n st =
    (3 * Sizing.id_bits ~n) + Sizing.list_bits ~n (Sizing.id_bits ~n) (List.length st.waiting)
end
