(* E21 — model conformance and bounded schedule exploration coverage.

   The paper's proofs quantify over every asynchronous execution; testing
   samples them.  This experiment reports how much of the schedule space
   the checking layer actually covers: for each small instance, the
   exhaustive DFS over delivery interleavings (configurations, transitions,
   truncation) from clean, legitimate and adversarial starts, with
   conformance against the reference model and closure of the legitimacy
   predicate checked on every path — plus long random lockstep walks for
   the schedules past the horizon.  Violations must be zero on a correct
   build; the `mdst_sim mutate` gate proves the same machinery reports
   non-zero under seeded historical bugs. *)

module Graph = Mdst_graph.Graph
module Explore = Mdst_check.Explore

let instances quick =
  let path n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let cycle n = Graph.of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1))) in
  let base = [ ("K3", Graph.complete 3); ("path4", path 4); ("cycle4", cycle 4) ] in
  if quick then base else base @ [ ("K4", Graph.complete 4); ("cycle5", cycle 5) ]

let variants = [ ("default", `Default); ("suppressed", `Suppressed) ]

let run ?(quick = false) () =
  let max_depth = if quick then 6 else 8 in
  let max_configs = if quick then 3_000 else 20_000 in
  let dfs_table =
    Table.make ~title:"E21: bounded schedule exploration (conformance + closure on every path)"
      ~columns:[ "graph"; "variant"; "init"; "configs"; "transitions"; "depth"; "truncated"; "violations" ]
  in
  let walk_table =
    Table.make ~title:"E21: random lockstep walks (engine schedule hook vs reference model)"
      ~columns:[ "graph"; "variant"; "walks"; "events"; "divergences" ]
  in
  List.iter
    (fun (gname, graph) ->
      List.iter
        (fun (vname, variant) ->
          List.iter
            (fun (iname, init) ->
              let stats, vio = Explore.dfs ~max_depth ~max_configs ~variant ~init graph in
              Table.add_row dfs_table
                [
                  gname;
                  vname;
                  iname;
                  Table.cell_int stats.Explore.configs;
                  Table.cell_int stats.Explore.transitions;
                  Table.cell_int stats.Explore.max_depth_reached;
                  Table.cell_bool stats.Explore.truncated;
                  (match vio with None -> "0" | Some _ -> "VIOLATION");
                ])
            [ ("clean", `Clean); ("legitimate", `Legitimate); ("random", `Random 17) ];
          let walks = if quick then 2 else 4 in
          let steps = if quick then 200 else 600 in
          let events = ref 0 and divergences = ref 0 in
          for i = 0 to walks - 1 do
            match Explore.walk ~steps ~variant ~seed:(100 + i) ~init:`Random graph with
            | Ok n -> events := !events + n
            | Error _ -> incr divergences
          done;
          Table.add_row walk_table
            [ gname; vname; Table.cell_int walks; Table.cell_int !events; Table.cell_int !divergences ])
        variants)
    (instances quick);
  Table.add_note dfs_table
    "every explored transition checks real-vs-model conformance; closure: a legitimate, \
     quiescent, accurate configuration never steps to an illegitimate one";
  Table.add_note walk_table
    "walks are lockstep scenarios replayed with a seeded random choice among eligible events";
  [ dfs_table; walk_table ]
