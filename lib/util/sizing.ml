(* Idealised bit-size accounting used by the memory/message metering of
   experiment E5.  We charge the information-theoretic cost the paper's
   complexity analysis uses: an identifier or distance in a network of n
   nodes costs ceil(log2 n) bits, a boolean 1 bit, a list the sum of its
   elements plus a length field. *)

(* ceil (log2 n) for n >= 2 is the bit length of n - 1; counted with
   shifts, it needs no float [log] (two library calls and a [ceil] on
   every metered message).  Agrees with the float formula
   [int_of_float (ceil (log n /. log 2.))] on every n <= 2^22 (pinned by a
   test); above that it is the float formula that errs, by one at some
   powers of two (2^29, 2^31, 2^39). *)
let rec bit_length v acc = if v = 0 then acc else bit_length (v lsr 1) (acc + 1)

let bits_for_card n = if n <= 1 then 1 else bit_length (n - 1) 0

let id_bits ~n = bits_for_card n

let int_bits v = if v <= 1 then 1 else bits_for_card (v + 1)

let bool_bits = 1

let list_bits ~n element_bits count = bits_for_card (n + 1) + (element_bits * count)
