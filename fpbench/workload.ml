(* The workloads and the batch of instances each derives from a seed.

   A run works through a batch, not one instance: on one graph size the
   rounds and messages to the fixpoint vary several-fold across schedules,
   with a heavy tail (an occasional instance takes 10-30x the mean).  So a
   batch holds many small instances, and the end-to-end metrics are
   per-instance geometric means over it (see README.md).  The batch size is
   [per_second] instances per second of measuring time, which keeps a run
   near the requested length on a 2-core Xeon; the simulated statistics
   depend only on (workload, seed, seconds).  The program only ever sees
   the generated graphs and engine seeds. *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Prng = Mdst_util.Prng

type family = Er of { n : int; avg_degree : float } | Star of int | Grid of { rows : int; cols : int }

type t = {
  name : string;
  family : family;
  init : Mdst_core.Run.init;
  per_second : float;  (** batch instances per second of measuring time *)
  domains : int option;  (** [Some k]: sharded engine on [k] domains *)
}

(* Why each workload is here.  The shares are from traced runs at these
   sizes (README.md, "Traffic at these sizes").
   - er-clean: the reduction phase from a clean start.  Search is 42% of
     message receipts and Info 58%; degrees are low, so per-degree handler
     costs barely show.  The stop rule's 60-round quiet tail is 14% of the
     rounds.
   - er-corrupt: the same graph family from arbitrary states and corrupted
     channels: R1/R2 repair and garbage messages.  At n=16 its traffic mix,
     quiet tail and stop+FR share (2% of wall time) match er-clean's.
   - star-hub: Info traffic only, O(d) work per receipt at the hub; no
     cycles, so Search, reduction and the FR oracle are all bypassed.  The
     tree is found within a few rounds, so the quiet tail is 88% of the
     rounds: the workload measures steady Info traffic at the hub.
   - grid-pengine: the only workload on the sharded engine, run on one
     domain: its window loop, clocks and per-shard heap, not the host's
     scheduling of a second domain (see README.md).  Search is 78% of
     receipts; the quiet tail is 11% of the rounds. *)
let all =
  [
    { name = "er-clean"; family = Er { n = 16; avg_degree = 4.0 }; init = `Clean; per_second = 16.0; domains = None };
    { name = "er-corrupt"; family = Er { n = 16; avg_degree = 4.0 }; init = `Random; per_second = 16.0; domains = None };
    { name = "star-hub"; family = Star 1024; init = `Clean; per_second = 0.8; domains = None };
    { name = "grid-pengine"; family = Grid { rows = 5; cols = 5 }; init = `Clean; per_second = 16.0; domains = Some 1 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let names = List.map (fun w -> w.name) all

type instance = {
  index : int;
  graph : Graph.t;
  engine_seed : int;
}

let generate w rng =
  match w.family with
  | Er { n; avg_degree } -> Gen.erdos_renyi_connected rng ~n ~p:(avg_degree /. float_of_int (n - 1))
  | Star n -> Gen.star n
  | Grid { rows; cols } -> Gen.grid ~rows ~cols

let batch_size w ~seconds = max 2 (int_of_float (Float.round (w.per_second *. float_of_int seconds)))

(* Same arguments, same batch: graphs and engine seeds come from one
   stream keyed by (workload, seed). *)
let batch w ~seed ~seconds =
  let rng = Prng.create ((seed * 7919) + Prng.seed_of_string w.name) in
  List.init (batch_size w ~seconds) (fun index ->
      let g = Prng.split rng in
      let graph = generate w g in
      let engine_seed = Prng.int rng 1_000_000_000 in
      { index; graph; engine_seed })
