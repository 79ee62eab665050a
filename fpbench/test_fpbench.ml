(* The trace wrappers must not perturb the schedule: on small instances a
   traced pass (timed automaton, ctx.send, stop predicate and FR oracle)
   gives the same simulated statistics and final fingerprint as the
   untraced pass, on both engines and from clean and corrupted starts. *)

open Fpbench
module M = Measure

let small =
  [
    { Workload.name = "t-er-clean"; family = Er { n = 10; avg_degree = 4.0 }; init = `Clean; per_second = 1.0; domains = None };
    { Workload.name = "t-er-corrupt"; family = Er { n = 10; avg_degree = 4.0 }; init = `Random; per_second = 1.0; domains = None };
    { Workload.name = "t-grid-sharded"; family = Grid { rows = 3; cols = 3 }; init = `Clean; per_second = 1.0; domains = Some 2 };
  ]

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let () =
  List.iter
    (fun (w : Workload.t) ->
      let batch = Workload.batch w ~seed:3 ~seconds:2 in
      let plain = List.map (M.Plain.run_instance ~traced:false w) batch in
      let traced, t =
        List.fold_left
          (fun (outs, totals) inst ->
            let out = M.Traced.run_instance ~traced:true w inst in
            (out :: outs, Timed.collect totals))
          ([], Timed.zero) batch
      in
      let traced = List.rev traced in
      let digests outs = List.map M.digest outs in
      check (w.name ^ ": every instance verified")
        (List.for_all (fun (o : M.outcome) -> o.verified) (plain @ traced));
      check (w.name ^ ": traced run bit-identical to untraced") (digests plain = digests traced);
      check (w.name ^ ": wrappers saw the run")
        (t.fam_calls.(0) > 0 && t.fam_timed.(0) > 0 && t.sends > 0 && t.timed_sends > 0
        && t.stop_calls > 0 && t.fr_calls > 0))
    small;
  if !failures > 0 then exit 1
