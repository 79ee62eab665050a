(* Per-layer timing, taken from outside the program.

   The protocol automaton is wrapped in {!Automaton}: [on_tick] and
   [on_message] calls are counted by family, and one call in
   [sample_every] of each family at each node is timed with the monotonic
   clock, together with every [ctx.send] it makes.  A clock read costs
   about 30 ns, against 300-1000 ns for a handler, so timing every call
   would stretch the run by a quarter.  Handler times are self times: the
   nested sends are subtracted, because sending is engine work.  The stop
   predicate and the FR oracle are wrapped by {!stop} and {!oracle} and
   timed on every call.  The stop wrapper also notes, untimed, the round,
   the send count and the host time at which the protocol fingerprint last
   changed, as the stop rule sees it: what comes after is the quiet tail
   that the stop rule waits out before it fires.

   Counters live in per-node arrays.  A node's handlers run on exactly one
   domain (its shard's, under the sharded engine), so the arrays need no
   synchronisation; they are summed between runs.  The wrappers allocate
   nothing in steady state: the timed [ctx] of a node is built once and
   cached against the engine's own [ctx] record. *)

module Node = Mdst_sim.Node
module Msg = Mdst_core.Msg
module State = Mdst_core.State

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sample_every = 8

(* Handler families, in reporting order.  [swap] covers the three-pass
   commit and its distance repair: swap-req, remove, grant, reverse,
   update-dist. *)
let families = [| "tick"; "info"; "search"; "deblock"; "swap" |]

let n_fam = Array.length families

let family_of_label = function "info" -> 1 | "search" -> 2 | "deblock" -> 3 | _ -> 4

type node_counters = {
  mutable calls : int array;  (** [node * n_fam + family]: every call *)
  mutable timed : int array;  (** the sampled calls *)
  mutable ns : int array;  (** self time of the sampled calls *)
  mutable sending : bool array;  (** per node: inside a sampled call *)
  mutable send_calls : int array;  (** per sending node: every send *)
  mutable timed_sends : int array;  (** sends made inside sampled calls *)
  mutable send_ns : int array;
  mutable swap_reqs : int array;  (** swap-req receipts per node *)
  mutable ctxs : (Msg.t Node.ctx * Msg.t Node.ctx) option array;
      (** (engine ctx, timed ctx) per node *)
}

let c =
  {
    calls = [||];
    timed = [||];
    ns = [||];
    sending = [||];
    send_calls = [||];
    timed_sends = [||];
    send_ns = [||];
    swap_reqs = [||];
    ctxs = [||];
  }

(* Where a run stood at a stop call. *)
type mark = { round : int; sends : int; at_ns : int }

(* Stop predicate and oracle: called on the driving domain only. *)
type outer = {
  mutable stop_calls : int;
  mutable stop_ns : int;
  mutable fr_calls : int;
  mutable fr_ns : int;
  mutable peak_pending : int;
  mutable last_fp : int;
  mutable change : mark;  (** at the last fingerprint change *)
  mutable last : mark;  (** at the last stop call *)
}

let o =
  {
    stop_calls = 0;
    stop_ns = 0;
    fr_calls = 0;
    fr_ns = 0;
    peak_pending = 0;
    last_fp = 0;
    change = { round = 0; sends = 0; at_ns = 0 };
    last = { round = 0; sends = 0; at_ns = 0 };
  }

let reset ~n =
  c.calls <- Array.make (n * n_fam) 0;
  c.timed <- Array.make (n * n_fam) 0;
  c.ns <- Array.make (n * n_fam) 0;
  c.sending <- Array.make n false;
  c.send_calls <- Array.make n 0;
  c.timed_sends <- Array.make n 0;
  c.send_ns <- Array.make n 0;
  c.swap_reqs <- Array.make n 0;
  c.ctxs <- Array.make n None;
  o.stop_calls <- 0;
  o.stop_ns <- 0;
  o.fr_calls <- 0;
  o.fr_ns <- 0;
  o.peak_pending <- 0;
  o.last_fp <- 0;
  o.change <- { round = 0; sends = 0; at_ns = now_ns () };
  o.last <- o.change

let timed_ctx (ctx : Msg.t Node.ctx) =
  match c.ctxs.(ctx.node) with
  | Some (orig, timed) when orig == ctx -> timed
  | _ ->
      let node = ctx.node and send = ctx.send in
      let sending = c.sending and send_calls = c.send_calls in
      let timed_sends = c.timed_sends and send_ns = c.send_ns in
      let timed_send dst msg =
        send_calls.(node) <- send_calls.(node) + 1;
        if sending.(node) then begin
          let t0 = now_ns () in
          send dst msg;
          send_ns.(node) <- send_ns.(node) + (now_ns () - t0);
          timed_sends.(node) <- timed_sends.(node) + 1
        end
        else send dst msg
      in
      let timed = { ctx with send = timed_send } in
      c.ctxs.(ctx.node) <- Some (ctx, timed);
      timed

(* Count a call of [fam] at [node]; true when it is one to time. *)
let sampled node fam =
  let i = (node * n_fam) + fam in
  let k = c.calls.(i) in
  c.calls.(i) <- k + 1;
  k mod sample_every = 0

let record node fam ~t0 ~sent0 =
  let i = (node * n_fam) + fam in
  c.ns.(i) <- c.ns.(i) + (now_ns () - t0) - (c.send_ns.(node) - sent0);
  c.timed.(i) <- c.timed.(i) + 1;
  c.sending.(node) <- false

module Automaton (A : Node.AUTOMATON with type state = State.t and type msg = Msg.t) :
  Node.AUTOMATON with type state = State.t and type msg = Msg.t = struct
  include A

  let on_tick (ctx : Msg.t Node.ctx) st =
    let timed = timed_ctx ctx and node = ctx.node in
    if not (sampled node 0) then A.on_tick timed st
    else begin
      c.sending.(node) <- true;
      let sent0 = c.send_ns.(node) and t0 = now_ns () in
      let st = A.on_tick timed st in
      record node 0 ~t0 ~sent0;
      st
    end

  let on_message (ctx : Msg.t Node.ctx) st ~src msg =
    let timed = timed_ctx ctx and node = ctx.node in
    let label = A.msg_label msg in
    if String.equal label "swap-req" then c.swap_reqs.(node) <- c.swap_reqs.(node) + 1;
    let fam = family_of_label label in
    if not (sampled node fam) then A.on_message timed st ~src msg
    else begin
      c.sending.(node) <- true;
      let sent0 = c.send_ns.(node) and t0 = now_ns () in
      let st = A.on_message timed st ~src msg in
      record node fam ~t0 ~sent0;
      st
    end
end

let oracle f tree =
  let t0 = now_ns () in
  let r = f tree in
  o.fr_ns <- o.fr_ns + (now_ns () - t0);
  o.fr_calls <- o.fr_calls + 1;
  r

let sum = Array.fold_left ( + ) 0

let stop ~pending ~rounds ~states f t =
  o.peak_pending <- max o.peak_pending (pending t);
  let now = { round = rounds t; sends = sum c.send_calls; at_ns = now_ns () } in
  let fp = Mdst_core.Checker.fingerprint (states t) in
  if fp <> o.last_fp then begin
    o.last_fp <- fp;
    o.change <- now
  end;
  o.last <- now;
  let t0 = now_ns () in
  let r = f t in
  o.stop_ns <- o.stop_ns + (now_ns () - t0);
  o.stop_calls <- o.stop_calls + 1;
  r

type totals = {
  fam_calls : int array;
  fam_timed : int array;
  fam_ns : int array;
  sends : int;
  timed_sends : int;
  send_ns_total : int;
  swap_req_total : int;
  stop_calls : int;
  stop_ns : int;
  fr_calls : int;
  fr_ns : int;
  peak_pending : int;
  rounds : int;  (** at the last stop call, summed over runs *)
  tail_rounds : int;  (** after the last fingerprint change *)
  tail_sends : int;
  tail_ns : int;
}

let zero =
  {
    fam_calls = Array.make n_fam 0;
    fam_timed = Array.make n_fam 0;
    fam_ns = Array.make n_fam 0;
    sends = 0;
    timed_sends = 0;
    send_ns_total = 0;
    swap_req_total = 0;
    stop_calls = 0;
    stop_ns = 0;
    fr_calls = 0;
    fr_ns = 0;
    peak_pending = 0;
    rounds = 0;
    tail_rounds = 0;
    tail_sends = 0;
    tail_ns = 0;
  }

(* Per-call self time of a family, from its sampled calls. *)
let ns_per_call t f = if t.fam_timed.(f) = 0 then 0.0 else float_of_int t.fam_ns.(f) /. float_of_int t.fam_timed.(f)

(* Total handler self time, extrapolated from the sampled calls. *)
let handler_ns t =
  Array.fold_left ( +. ) 0.0 (Array.mapi (fun f calls -> ns_per_call t f *. float_of_int calls) t.fam_calls)

(* The counters of the run just finished, folded into [acc]. *)
let collect acc =
  let per_fam a =
    Array.init n_fam (fun f ->
        let s = ref 0 in
        for v = 0 to (Array.length a / n_fam) - 1 do
          s := !s + a.((v * n_fam) + f)
        done;
        !s)
  in
  {
    fam_calls = Array.map2 ( + ) acc.fam_calls (per_fam c.calls);
    fam_timed = Array.map2 ( + ) acc.fam_timed (per_fam c.timed);
    fam_ns = Array.map2 ( + ) acc.fam_ns (per_fam c.ns);
    sends = acc.sends + sum c.send_calls;
    timed_sends = acc.timed_sends + sum c.timed_sends;
    send_ns_total = acc.send_ns_total + sum c.send_ns;
    swap_req_total = acc.swap_req_total + sum c.swap_reqs;
    stop_calls = acc.stop_calls + o.stop_calls;
    stop_ns = acc.stop_ns + o.stop_ns;
    fr_calls = acc.fr_calls + o.fr_calls;
    fr_ns = acc.fr_ns + o.fr_ns;
    peak_pending = max acc.peak_pending o.peak_pending;
    rounds = acc.rounds + o.last.round;
    tail_rounds = acc.tail_rounds + (o.last.round - o.change.round);
    tail_sends = acc.tail_sends + (o.last.sends - o.change.sends);
    tail_ns = acc.tail_ns + (o.last.at_ns - o.change.at_ns);
  }
