(* Per-label accounting.  Labels are few (one per message family) and an
   automaton returns the same string literal for every message of a
   family, so the per-send lookup is a scan of a short array comparing
   pointers; only a label that is a fresh copy of a known one pays a
   [String.equal] pass, and it is then counted under the entry already
   there (the table never holds one label twice).  No hash of the label
   and no option is built per send. *)

type per_label = { mutable count : int; mutable bits_sum : int }

type t = {
  mutable labels : string array;
  mutable counters : per_label array;  (* same slots as [labels] *)
  mutable sends : int;
  mutable deliveries : int;
  mutable total_bits : int;
  mutable max_state_bits : int;
  mutable max_msg_bits : int;
  mutable suppressed : int;
}

let create () =
  {
    labels = [||];
    counters = [||];
    sends = 0;
    deliveries = 0;
    total_bits = 0;
    max_state_bits = 0;
    max_msg_bits = 0;
    suppressed = 0;
  }

let rec find_phys t label i =
  if i >= Array.length t.labels then -1
  else if Array.unsafe_get t.labels i == label then i
  else find_phys t label (i + 1)

let rec find_equal t label i =
  if i >= Array.length t.labels then -1
  else if String.equal (Array.unsafe_get t.labels i) label then i
  else find_equal t label (i + 1)

(* The counter record of [label], created on first sight. *)
let counter t label =
  let i = find_phys t label 0 in
  let i = if i >= 0 then i else find_equal t label 0 in
  if i >= 0 then Array.unsafe_get t.counters i
  else begin
    let c = { count = 0; bits_sum = 0 } in
    t.labels <- Array.append t.labels [| label |];
    t.counters <- Array.append t.counters [| c |];
    c
  end

let record_send t ~label ~bits =
  let c = counter t label in
  c.count <- c.count + 1;
  c.bits_sum <- c.bits_sum + bits;
  t.sends <- t.sends + 1;
  t.total_bits <- t.total_bits + bits;
  if bits > t.max_msg_bits then t.max_msg_bits <- bits

let record_delivery t = t.deliveries <- t.deliveries + 1

let record_suppressed t k = t.suppressed <- t.suppressed + k

let suppressed_sends t = t.suppressed

let record_state_bits t b = if b > t.max_state_bits then t.max_state_bits <- b

let record_msg_peak_bits t b = if b > t.max_msg_bits then t.max_msg_bits <- b

let total_messages t = t.sends

let deliveries t = t.deliveries

let total_bits t = t.total_bits

let merge_into ~into src =
  for i = 0 to Array.length src.labels - 1 do
    let c = src.counters.(i) and d = counter into src.labels.(i) in
    d.count <- d.count + c.count;
    d.bits_sum <- d.bits_sum + c.bits_sum
  done;
  into.sends <- into.sends + src.sends;
  into.deliveries <- into.deliveries + src.deliveries;
  into.total_bits <- into.total_bits + src.total_bits;
  if src.max_state_bits > into.max_state_bits then into.max_state_bits <- src.max_state_bits;
  if src.max_msg_bits > into.max_msg_bits then into.max_msg_bits <- src.max_msg_bits;
  into.suppressed <- into.suppressed + src.suppressed

let sorted t project =
  List.init (Array.length t.labels) (fun i -> (t.labels.(i), project t.counters.(i)))
  |> List.sort compare

let messages_by_label t = sorted t (fun c -> c.count)

let bits_by_label t = sorted t (fun c -> c.bits_sum)

let max_state_bits t = t.max_state_bits

let max_msg_bits t = t.max_msg_bits

let reset t =
  t.labels <- [||];
  t.counters <- [||];
  t.sends <- 0;
  t.deliveries <- 0;
  t.total_bits <- 0;
  t.max_state_bits <- 0;
  t.max_msg_bits <- 0;
  t.suppressed <- 0

let pp ppf t =
  Format.fprintf ppf "@[<v>messages=%d delivered=%d bits=%d state<=%db msg<=%db suppressed=%d@,"
    t.sends t.deliveries t.total_bits t.max_state_bits t.max_msg_bits t.suppressed;
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-10s %d@," k v) (messages_by_label t);
  Format.fprintf ppf "@]"
