(* The convergence benchmark: time, rounds and messages from a clean or
   corrupted start to a verified Fürer–Raghavachari fixpoint.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every line but the last is for people: a machine header, the simulated
   digest of each instance, and each metric with its unit and whether it
   is host time or simulated.  The last line is one JSON object with the
   keys correct, attempted, failed and metrics.  See README.md. *)

open Fpbench
module M = Measure
module Stats = Mdst_analysis.Stats

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("fpbench: " ^ s); exit 2) fmt

(* ---- machine header ---- *)

(* The value of the first "key: value" line of a /proc file starting with
   [key]. *)
let proc_field file key =
  match open_in file with
  | exception Sys_error _ -> None
  | ic ->
      let k = String.length key in
      let rec find () =
        match input_line ic with
        | line when String.length line > k && String.sub line 0 k = key -> (
            match String.index_opt line ':' with
            | Some i -> Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | None -> find ())
        | _ -> find ()
        | exception End_of_file -> None
      in
      let v = find () in
      close_in ic;
      v

let print_header (w : Workload.t) ~seed ~seconds ~trace =
  Printf.printf "# fpbench workload=%s seed=%d seconds=%d trace=%d\n" w.name seed seconds trace;
  Printf.printf "# machine cores=%d ocaml=%s cpu=%S OCAMLRUNPARAM=%S\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name"))
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))

(* ---- reporting ---- *)

type kind = Host | Simulated

let report = ref []

let metric name value unit kind =
  let value = if Float.is_finite value then value else 0.0 in
  Printf.printf "metric %-32s %-18.6f %-8s %s\n" name value unit
    (match kind with Host -> "host" | Simulated -> "simulated");
  report := (name, value, unit) :: !report

let print_result ~correct ~attempted ~failed =
  let metrics =
    List.rev !report
    |> List.map (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %.15g, \"unit\": %S}" name value unit)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed metrics

let s_of_ns ns = float_of_int ns /. 1e9
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let print_digests (w : Workload.t) ~seed outs =
  List.iteri
    (fun i o -> Printf.printf "digest %s seed=%d %s\n" w.name seed (M.pp_digest i (M.digest o)))
    outs

let digests outs = List.map M.digest outs

let check_repeat ~what first outs =
  let same = digests outs = first in
  if not same then Printf.printf "# DIGEST MISMATCH: %s disagrees with the first run\n" what;
  same

(* Reports every instance whose stop rule fired on a tree that fails the
   independent check; true when there is none. *)
let all_sound outs =
  List.iter
    (fun (o : M.outcome) ->
      if o.unsound then
        Printf.printf "# UNSOUND: stopped at round %d but failed the independent check\n"
          o.result.rounds)
    outs;
  not (List.exists (fun (o : M.outcome) -> o.unsound) outs)

(* ---- end-to-end run ---- *)

(* A host time at the reference speed: scaled by [reference_nominal_ns]
   over the reference-loop time [ref_ns] measured next to it. *)
let at_reference ~ref_ns t = t *. M.reference_nominal_ns /. ref_ns

(* The median of 21 set-ups, each at the reference speed of a loop timed
   just before it.  Each set-up and each loop starts on a collected heap
   (untimed), so that the major-GC work still owed for earlier set-ups
   does not land in them.  Returns (raw, scaled, batch). *)
let setup w ~seed ~seconds =
  let samples, batch =
    List.fold_left
      (fun (acc, _) _ ->
        let ref_ns = M.reference_ns () in
        Gc.full_major ();
        let ns, batch = M.setup_ns w ~seed ~seconds in
        let t = s_of_ns ns in
        ((t, at_reference ~ref_ns t) :: acc, batch))
      ([], []) (List.init 21 Fun.id)
  in
  (Stats.median (List.map fst samples), Stats.median (List.map snd samples), batch)

let verified_count outs = List.length (List.filter (fun (o : M.outcome) -> o.verified) outs)

(* Every instance once, then instance 0 again: the repeat must reproduce
   its simulated digest exactly.  The machine's speed drifts in spells of
   seconds, so a reference loop is timed between consecutive instances,
   and each instance's host time is reported at the reference speed of
   the loops just before and after it.  The raw figures go on the
   "# host" line. *)
let end_to_end (w : Workload.t) ~seed ~seconds =
  let setup_raw, setup_s, batch = setup w ~seed ~seconds in
  let _, rows =
    List.fold_left
      (fun (before, rows) inst ->
        let o = M.Plain.run_instance ~traced:false w inst in
        let after = M.reference_ns () in
        (after, (o, (before +. after) /. 2.0) :: rows))
      (M.reference_ns (), [])
      batch
  in
  let rows = List.rev rows in
  let outs = List.map fst rows in
  let again = M.Plain.run_instance ~traced:false w (List.hd batch) in
  print_digests w ~seed outs;
  let repeats_agree = check_repeat ~what:"the repeat of instance 0" [ M.digest (List.hd outs) ] [ again ] in
  let all = again :: outs in
  let sound = all_sound all in
  let attempted = List.length all in
  let failed = attempted - verified_count all in
  let per f = List.map (fun (o : M.outcome) -> f o) outs in
  let walls = per (fun o -> s_of_ns o.run_ns) in
  let scaled = List.map (fun ((o : M.outcome), ref_ns) -> at_reference ~ref_ns (s_of_ns o.run_ns)) rows in
  let refs = List.map snd rows in
  let total f = isum (fun (o : M.outcome) -> f o.result) outs in
  let deliveries = float_of_int (total (fun r -> r.deliveries)) in
  Printf.printf
    "# host raw setup_s=%.6f wall_s=%.6f deliveries_per_s=%.1f reference_ms=%.3f (min %.3f, max %.3f)\n"
    setup_raw (M.geomean walls)
    (ratio deliveries (fsum Fun.id walls))
    (Stats.median refs /. 1e6)
    (Stats.minimum refs /. 1e6)
    (Stats.maximum refs /. 1e6);
  let geo f = M.geomean (per (fun o -> float_of_int (f o.result))) in
  let degrees = List.filter_map (fun (o : M.outcome) -> o.result.degree) outs in
  Printf.printf
    "# batch instances=%d fail_rate=%.4f total_wall_s=%.3f p90_wall_s=%.4f total_rounds=%d total_messages=%d\n"
    (List.length outs)
    (float_of_int failed /. float_of_int attempted)
    (fsum Fun.id walls) (Stats.percentile 90.0 walls)
    (total (fun r -> r.rounds))
    (total (fun r -> r.total_messages));
  metric "setup_s" setup_s "s" Host;
  metric "wall_s" (M.geomean scaled) "s" Host;
  metric "deliveries_per_s" (ratio deliveries (fsum Fun.id scaled)) "1/s" Host;
  metric "rounds" (geo (fun r -> r.rounds)) "rounds" Simulated;
  metric "messages" (geo (fun r -> r.total_messages)) "count" Simulated;
  metric "mbits" (geo (fun r -> r.total_bits) /. 1e6) "Mbit" Simulated;
  metric "max_msg_bits" (float_of_int (List.fold_left max 0 (per (fun o -> o.result.max_msg_bits)))) "bit" Simulated;
  metric "tree_degree"
    (ratio (float_of_int (List.fold_left ( + ) 0 degrees)) (float_of_int (List.length degrees)))
    "degree" Simulated;
  metric "verified_rate" (float_of_int (attempted - failed) /. float_of_int attempted) "ratio" Simulated;
  metric "alloc_mb" (M.geomean (per (fun o -> o.alloc_bytes /. 1e6))) "MB" Host;
  metric "heap_mb" (Stats.median (per (fun o -> o.heap_bytes /. 1e6))) "MB" Host;
  print_result ~correct:(repeats_agree && sound) ~attempted ~failed

(* ---- traced run: per-layer numbers ---- *)

(* The first half of the end-to-end batch.  Each instance runs untraced,
   then traced (then, on the sharded workload, untraced on two domains),
   back to back, so drift in machine speed and warm-up fall on both sides
   of the trace overhead alike. *)
let traced (w : Workload.t) ~seed ~seconds =
  let batch = Workload.batch w ~seed ~seconds:(max 1 (seconds / 2)) in
  let rows, t, refs =
    List.fold_left
      (fun (rows, totals, refs) inst ->
        let ref_ns = M.reference_ns () in
        let plain = M.Plain.run_instance ~traced:false w inst in
        let traced = M.Traced.run_instance ~traced:true w inst in
        let totals = Timed.collect totals in
        let two =
          Option.map (fun _ -> M.Plain.run_instance ~traced:false ~domains:(Some 2) w inst) w.domains
        in
        ((plain, traced, two) :: rows, totals, ref_ns :: refs))
      ([], Timed.zero, []) batch
  in
  let rows = List.rev rows in
  let plain = List.map (fun (p, _, _) -> p) rows and traced = List.map (fun (_, t, _) -> t) rows in
  let two = List.filter_map (fun (_, _, o) -> o) rows in
  print_digests w ~seed plain;
  let identical = check_repeat ~what:"the traced pass" (digests plain) traced in
  let sound = all_sound (plain @ traced @ two) in
  let wall outs = isum (fun (o : M.outcome) -> o.run_ns) outs in
  let wall0 = wall plain and wall1 = wall traced in
  let events = Timed.sum t.fam_calls in
  let handler_ns = Timed.handler_ns t in
  Array.iteri
    (fun f fam ->
      metric (Printf.sprintf "proto.%s.calls" fam) (float_of_int t.fam_calls.(f)) "count" Simulated;
      metric (Printf.sprintf "proto.%s.ns" fam) (Timed.ns_per_call t f) "ns" Host)
    Timed.families;
  metric "proto.handler_s" (handler_ns /. 1e9) "s" Host;
  metric "proto.search.swaps_per_kmsg"
    (ratio (1000.0 *. float_of_int t.swap_req_total) (float_of_int t.fam_calls.(2)))
    "1/kmsg" Simulated;
  metric "proto.search.share"
    (ratio (float_of_int t.fam_calls.(2)) (float_of_int (events - t.fam_calls.(0))))
    "ratio" Simulated;
  (* Under the sharded engine every domain's time counts. *)
  let domains = Option.value ~default:1 w.domains in
  let engine_ns = float_of_int ((wall1 * domains) - t.stop_ns) -. handler_ns in
  metric "engine.events" (float_of_int events) "count" Simulated;
  metric "engine.self_s" (engine_ns /. 1e9) "s" Host;
  metric "engine.self_ns_per_event" (ratio engine_ns (float_of_int events)) "ns" Host;
  metric "engine.send.calls" (float_of_int t.sends) "count" Simulated;
  metric "engine.send.ns" (ratio (float_of_int t.send_ns_total) (float_of_int t.timed_sends)) "ns" Host;
  metric "engine.peak_pending" (float_of_int t.peak_pending) "count" Simulated;
  let graphs = List.map (fun (i : Workload.instance) -> i.graph) batch in
  metric "engine.null_ns_per_event" (M.null_ns_per_event ~seed graphs ~events:400_000) "ns" Host;
  metric "stop.calls" (float_of_int t.stop_calls) "count" Simulated;
  metric "stop.s" (s_of_ns t.stop_ns) "s" Host;
  metric "checker.s" (s_of_ns (t.stop_ns - t.fr_ns)) "s" Host;
  metric "fr.calls" (float_of_int t.fr_calls) "count" Simulated;
  metric "fr.s" (s_of_ns t.fr_ns) "s" Host;
  metric "fr.ms_per_call" (ratio (float_of_int t.fr_ns /. 1e6) (float_of_int t.fr_calls)) "ms" Host;
  metric "stop.wall_share" (ratio (float_of_int t.stop_ns) (float_of_int wall1)) "ratio" Host;
  (* The quiet tail: what follows the last change of the protocol
     fingerprint, which the stop rule waits out before it fires. *)
  metric "tail.rounds_share" (ratio (float_of_int t.tail_rounds) (float_of_int t.rounds)) "ratio" Simulated;
  metric "tail.messages_share" (ratio (float_of_int t.tail_sends) (float_of_int t.sends)) "ratio" Simulated;
  metric "tail.wall_share" (ratio (float_of_int t.tail_ns) (float_of_int wall1)) "ratio" Host;
  (* Sharded-engine figures; 0 on the sequential workloads.  Each
     instance's stop is called once before the first window and once more
     for the final verdict. *)
  let windows = if w.domains = None then 0 else t.stop_calls - (2 * List.length batch) in
  let sharded v = if w.domains = None then 0.0 else v in
  metric "pengine.windows" (float_of_int windows) "count" Simulated;
  metric "pengine.window_us"
    (ratio (float_of_int (wall1 - t.stop_ns) /. 1e3) (float_of_int windows))
    "us" Host;
  metric "pengine.events_per_s"
    (sharded (ratio (float_of_int (isum (fun (o : M.outcome) -> o.events) plain)) (s_of_ns wall0)))
    "1/s" Host;
  metric "pengine.speedup_vs_d1"
    (sharded (ratio (float_of_int wall0) (float_of_int (wall two))))
    "ratio" Host;
  let n = List.fold_left (fun acc g -> max acc (Mdst_graph.Graph.n g)) 0 graphs in
  metric "util.heap.push_pop_ns" (M.heap_push_pop_ns ~size:t.peak_pending) "ns" Host;
  metric "util.prng.draw_ns" (M.prng_draw_ns ()) "ns" Host;
  metric "util.intset.add_ns" (M.intset_add_ns ~n) "ns" Host;
  metric "gc.minor" (float_of_int (isum (fun (o : M.outcome) -> o.minor) plain)) "count" Host;
  metric "gc.major" (float_of_int (isum (fun (o : M.outcome) -> o.major) plain)) "count" Host;
  metric "trace.overhead" (ratio (float_of_int wall1) (float_of_int wall0) -. 1.0) "ratio" Host;
  metric "host.reference_ms" (Stats.median refs /. 1e6) "ms" Host;
  let all = plain @ traced @ two in
  let attempted = List.length all in
  print_result ~correct:(identical && sound) ~attempted ~failed:(attempted - verified_count all)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Set_int seed, " seed of the batch (default 1)");
      ("--seconds", Arg.Set_int seconds, " measuring time of one run (default 10)");
      ("--trace", Arg.Set_int trace, " 1: per-layer traced run; 0: end-to-end (default)");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None -> fail "unknown workload %S (one of: %s)" !workload (String.concat ", " Workload.names)
  in
  if !seconds < 1 then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  print_header w ~seed:!seed ~seconds:!seconds ~trace:!trace;
  if !trace = 1 then traced w ~seed:!seed ~seconds:!seconds
  else end_to_end w ~seed:!seed ~seconds:!seconds
