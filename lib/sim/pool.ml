(* The engines' pending-event queue: events in parallel arrays, addressed
   by int handles, ordered by an int-handle heap.

   An event is a tick ([dst] = -1, [src] = the ticking node) or a
   delivery [src -> dst] carrying [msg]; both carry their arrival [time]
   and causal [tag].  Slots are recycled, so a simulated send writes five
   array cells and allocates no event record.  Never-used slots are
   handed out in index order ([fresh]); released ones go on a free list
   threaded through the [tag] cells of the free slots, so the free list
   costs no array of its own to build or grow.

   Release rule: a slot leaves the queue by [pop], [remove] or [purge],
   and the caller of [pop]/[remove] hands it back with [release] once it
   has read the fields.  [release] overwrites the message cell, so a
   delivered, purged or explicitly chosen message is collectable as soon
   as its handler lets go of it — the pool never pins a payload. *)

module Heap = Mdst_util.Heap

type 'msg t = {
  heap : Heap.t;
  mutable time : float array;
  mutable src : int array;
  mutable dst : int array;
  mutable tag : int array;  (* of a free slot: the next free slot, or -1 *)
  mutable msg : 'msg array;
  mutable free : int;  (* head of the free list, or -1 *)
  mutable fresh : int;  (* slots [fresh ..] have never been used *)
}

(* Placeholder for empty message cells; never read as a message. *)
let dummy () = Obj.magic 0

let create ~capacity =
  let capacity = max 1 capacity in
  {
    heap = Heap.create ~capacity ();
    time = Array.make capacity 0.0;
    src = Array.make capacity 0;
    dst = Array.make capacity 0;
    tag = Array.make capacity 0;
    msg = Array.make capacity (dummy ());
    free = -1;
    fresh = 0;
  }

let length q = Heap.length q.heap

let is_empty q = Heap.is_empty q.heap

(* Called only when every slot is live. *)
let grow q =
  let cap = Array.length q.time in
  let extend a fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  q.time <- extend q.time 0.0;
  q.src <- extend q.src 0;
  q.dst <- extend q.dst 0;
  q.tag <- extend q.tag 0;
  q.msg <- extend q.msg (dummy ())

let alloc q =
  let h = q.free in
  if h >= 0 then begin
    q.free <- Array.unsafe_get q.tag h;
    h
  end
  else begin
    if q.fresh = Array.length q.time then grow q;
    q.fresh <- q.fresh + 1;
    q.fresh - 1
  end

let deliver q ~time ~seq ~src ~dst ~tag msg =
  let h = alloc q in
  Array.unsafe_set q.time h time;
  Array.unsafe_set q.src h src;
  Array.unsafe_set q.dst h dst;
  Array.unsafe_set q.tag h tag;
  Array.unsafe_set q.msg h msg;
  Heap.push_at q.heap ~prio:time ~seq h

let tick q ~time ~seq ~node ~tag = deliver q ~time ~seq ~src:node ~dst:(-1) ~tag (dummy ())

let is_tick q h = Array.unsafe_get q.dst h < 0

let release q h =
  Array.unsafe_set q.msg h (dummy ());
  Array.unsafe_set q.tag h q.free;
  q.free <- h

let top q = Heap.top q.heap

let top_seq q = Heap.top_seq q.heap

let pop q = Heap.drop_min q.heap

let remove q h = ignore (Heap.filter q.heap (fun _ h' -> h' <> h))

let purge q drop =
  Heap.filter q.heap (fun _ h ->
      if is_tick q h || not (drop ~src:q.src.(h) ~dst:q.dst.(h)) then true
      else begin
        release q h;
        false
      end)

let handles q = List.map snd (Heap.to_list q.heap)
