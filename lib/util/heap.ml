(* Parallel-array binary min-heap of int handles.

   Priorities, tie-break sequence numbers and payloads live in three
   parallel arrays: a float array stores its elements unboxed, and the
   payload is a plain int (the discrete-event engines store an event-pool
   handle, see [Mdst_sim.Pool]).  Moving an int is a plain store: no
   [caml_modify] write barrier, no float-array tag check, and no young
   pointer stored into a long-lived major-heap array, all of which a
   polymorphic ['a array] pays on every sift level.

   Sifts move a hole instead of swapping: the entry being placed is held
   in registers while the entries on its path shift by one level, and it
   is written once at the end.  Because keys [(prio, seq)] are unique
   (every push draws a fresh [seq], and [push_at] callers supply distinct
   ones), each comparison a swap-based sift makes has the same outcome
   here, so the array layout after every operation is exactly the one the
   swap heap produced: [to_list] order and the order of equal-time events
   do not change. *)

type t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  {
    prios = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    values = Array.make capacity 0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let cap = 2 * Array.length t.prios in
  let prios = Array.make cap 0.0 in
  Array.blit t.prios 0 prios 0 t.size;
  t.prios <- prios;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  let values = Array.make cap 0 in
  Array.blit t.values 0 values 0 t.size;
  t.values <- values

(* Place the entry [(p, s, v)] at the hole [i], moving the hole up past
   every parent that orders after the entry: (prio, seq) min-order, FIFO
   among equal priorities. *)
let rec sift_up t i p s v =
  let parent = (i - 1) / 2 in
  let pp = Array.unsafe_get t.prios parent and ps = Array.unsafe_get t.seqs parent in
  if i > 0 && (p < pp || (p = pp && s < ps)) then begin
    Array.unsafe_set t.prios i pp;
    Array.unsafe_set t.seqs i ps;
    Array.unsafe_set t.values i (Array.unsafe_get t.values parent);
    sift_up t parent p s v
  end
  else begin
    Array.unsafe_set t.prios i p;
    Array.unsafe_set t.seqs i s;
    Array.unsafe_set t.values i v
  end

(* Move the entry stored at slot [src] (outside the live prefix, so no
   sift step overwrites it) into the hole [i], moving the hole down past
   the smaller child while that child orders before the entry.  The entry
   is addressed by index rather than passed as arguments: a float argument
   would be boxed on every call. *)
let rec sift_down t i src =
  let p = Array.unsafe_get t.prios src and s = Array.unsafe_get t.seqs src in
  let l = (2 * i) + 1 in
  let c =
    if l >= t.size then -1
    else begin
      let r = l + 1 in
      if r < t.size then begin
        let lp = Array.unsafe_get t.prios l and rp = Array.unsafe_get t.prios r in
        if rp < lp || (rp = lp && Array.unsafe_get t.seqs r < Array.unsafe_get t.seqs l) then r
        else l
      end
      else l
    end
  in
  if c >= 0 && (Array.unsafe_get t.prios c < p
                || (Array.unsafe_get t.prios c = p && Array.unsafe_get t.seqs c < s))
  then begin
    Array.unsafe_set t.prios i (Array.unsafe_get t.prios c);
    Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs c);
    Array.unsafe_set t.values i (Array.unsafe_get t.values c);
    sift_down t c src
  end
  else begin
    Array.unsafe_set t.prios i p;
    Array.unsafe_set t.seqs i s;
    Array.unsafe_set t.values i (Array.unsafe_get t.values src)
  end

let push_at t ~prio ~seq value =
  if t.size = Array.length t.prios then grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) prio seq value

let push t ~prio value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_at t ~prio ~seq value

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.values.(0)

let top_seq t =
  if t.size = 0 then invalid_arg "Heap.top_seq: empty heap";
  t.seqs.(0)

let top_prio t =
  if t.size = 0 then invalid_arg "Heap.top_prio: empty heap";
  t.prios.(0)

let drop_min t =
  if t.size = 0 then invalid_arg "Heap.drop_min: empty heap";
  let v = t.values.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 last;
  v

let pop t =
  if t.size = 0 then None
  else begin
    (* Bind the priority before [drop_min] replaces the root. *)
    let prio = t.prios.(0) in
    Some (prio, drop_min t)
  end

let peek t = if t.size = 0 then None else Some (t.prios.(0), t.values.(0))

let clear t =
  t.size <- 0;
  t.next_seq <- 0

let filter t keep =
  (* Compact the surviving entries (keeping their original [seq], so FIFO
     ties stay deterministic), then re-establish the heap shape. *)
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    if keep t.prios.(i) t.values.(i) then begin
      t.prios.(!kept) <- t.prios.(i);
      t.seqs.(!kept) <- t.seqs.(i);
      t.values.(!kept) <- t.values.(i);
      incr kept
    end
  done;
  let removed = t.size - !kept in
  t.size <- !kept;
  (* Heapify; each sifted entry is first parked in the slot past the live
     prefix, which [removed > 0] guarantees exists. *)
  if removed > 0 then
    for i = (t.size / 2) - 1 downto 0 do
      t.prios.(t.size) <- t.prios.(i);
      t.seqs.(t.size) <- t.seqs.(i);
      t.values.(t.size) <- t.values.(i);
      sift_down t i t.size
    done;
  removed

let to_list t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    acc := (t.prios.(i), t.values.(i)) :: !acc
  done;
  !acc
