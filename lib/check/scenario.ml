(* The shared reproducer: one execution as data, one printer, one parser.
   See scenario.mli for the grammar. *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model
module Fault = Mdst_sim.Fault

type variant = [ `Default | `Suppressed | `Broken ]

type init = [ `Clean | `Legitimate | `Random ]

type schedule = Natural of int | Events of { events : Model.event list; steps : int }

type oracle = Lockstep | Converge of Fault.plan | Decouple

type t = {
  variant : variant;
  init : init;
  graph : Graph.t;
  seed : int;
  oracle : oracle;
  schedule : schedule;
}

let variants = [ (`Default, "default"); (`Suppressed, "suppressed"); (`Broken, "broken") ]

let inits = [ (`Clean, "clean"); (`Legitimate, "legitimate"); (`Random, "random") ]

let variant_name v = List.assoc v variants

(* The schedule a line without [events=] or [sched=] means. *)
let default_events = function Lockstep -> 100 | Converge _ | Decouple -> 0

(* ---------------- printer ---------------- *)

let to_string s =
  let g = s.graph in
  let n = Graph.n g in
  let ids = List.init n (Graph.id g) in
  let ints l = String.concat "," (List.map string_of_int l) in
  let edges =
    Array.to_list (Graph.edges g)
    |> List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v)
    |> String.concat ","
  in
  let schedule =
    match s.schedule with
    | Natural k when k = default_events s.oracle -> []
    | Natural k -> [ Printf.sprintf "events=%d" k ]
    | Events { events; steps } ->
        (if steps = List.length events then [] else [ Printf.sprintf "steps=%d" steps ])
        @ [ "sched=" ^ String.concat "," (List.map Model.event_to_string events) ]
  in
  String.concat ";"
    ((if s.variant = `Default then [] else [ "variant=" ^ variant_name s.variant ])
    @ [ "init=" ^ List.assoc s.init inits; Printf.sprintf "n=%d" n ]
    @ (if ids = List.init n Fun.id then [] else [ "ids=" ^ ints ids ])
    @ [ "edges=" ^ edges; Printf.sprintf "seed=%d" s.seed ]
    @ (match s.oracle with
      | Lockstep -> []
      | Converge plan -> [ "plan=" ^ Fault.to_string plan ]
      | Decouple -> [ "dc=1" ])
    @ schedule)

(* ---------------- parser ---------------- *)

let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Scenario.of_string: " ^ m)) fmt

let int_value key v =
  match int_of_string_opt (String.trim v) with Some x -> x | None -> fail "bad %s %S" key v

let enum key table v =
  match List.find_opt (fun (_, name) -> name = v) table with
  | Some (x, _) -> x
  | None -> fail "bad %s %S" key v

let list_value f v =
  String.split_on_char ',' v |> List.filter (fun x -> String.trim x <> "") |> List.map f

let of_string line =
  let variant = ref `Default and init = ref `Random in
  let n = ref None and ids = ref None and edges = ref None and seed = ref 0 in
  let plan = ref None and dc = ref false in
  let events = ref None and steps = ref None and sched = ref None in
  List.iter
    (fun part ->
      let part = String.trim part in
      if part <> "" then
        match String.index_opt part '=' with
        | None -> fail "bad component %S" part
        | Some i -> (
            let value = String.sub part (i + 1) (String.length part - i - 1) in
            let nonneg key = match int_value key value with k when k >= 0 -> k | _ -> fail "bad %s %S" key value in
            match String.sub part 0 i with
            | "variant" -> variant := enum "variant" variants value
            | "init" -> init := enum "init" inits value
            | "n" -> n := int_of_string_opt value
            | "ids" -> ids := Some (Array.of_list (list_value (int_value "id") value))
            | "edges" ->
                edges :=
                  Some
                    (list_value
                       (fun e ->
                         match String.split_on_char '-' (String.trim e) with
                         | [ u; v ] -> (int_value "edge" u, int_value "edge" v)
                         | _ -> fail "bad edge %S" e)
                       value)
            | "seed" -> seed := int_value "seed" value
            | "plan" -> (
                try plan := Some (Fault.of_string value) with Invalid_argument m -> fail "%s" m)
            | "dc" -> dc := value = "1"
            | "events" -> events := Some (nonneg "events")
            | "steps" -> steps := Some (nonneg "steps")
            | "sched" ->
                sched :=
                  Some
                    (list_value
                       (fun t ->
                         try Model.event_of_string (String.trim t) with Failure m -> fail "%s" m)
                       value)
            | key -> fail "unknown key %S" key))
    (String.split_on_char ';' line);
  let graph =
    match (!n, !edges) with
    | Some n, Some edges -> Graph.of_edges ?ids:!ids ~n edges
    | _ -> fail "missing n= or edges="
  in
  let oracle =
    if !dc then Decouple else match !plan with Some p -> Converge p | None -> Lockstep
  in
  let schedule =
    match (!events, !sched) with
    | Some _, Some _ -> fail "events= and sched= are exclusive"
    | Some k, None -> Natural k
    | None, Some events ->
        Events { events; steps = Option.value !steps ~default:(List.length events) }
    | None, None -> Natural (default_events oracle)
  in
  { variant = !variant; init = !init; graph; seed = !seed; oracle; schedule }

(* ---------------- variants ---------------- *)

module type PROTO =
  Mdst_sim.Node.AUTOMATON
    with type state = Mdst_core.State.t
     and type msg = Mdst_core.Msg.t

module Broken = Lossy.Make (Mdst_core.Proto.Default) (struct
  let drop_labels = [ "grant" ]
end)

let automaton : variant -> (module PROTO) = function
  | `Default -> (module Mdst_core.Proto.Default)
  | `Suppressed -> (module Mdst_core.Proto.Suppressed)
  | `Broken -> (module Broken)

let params = function
  | `Default | `Broken -> Model.default
  | `Suppressed -> Model.suppressed
