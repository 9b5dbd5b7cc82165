(* What one round of a workload reports back to the measurement loop. *)

type t = {
  wall_s : float;  (** one run of the workload *)
  task_ms : float list;  (** each task's latency *)
  attempted : int;
  failures : string list;  (** one entry per failed task *)
  rows : string list;
      (** the round's result rows, in task order: a traced round must
          reproduce its untraced twin's rows byte for byte *)
  quality : (string * float) list;  (** [jumps.*] figures of the rows *)
  child_rss_kb : int;  (** largest peak RSS among the round's child processes *)
  layers : (string * float) list;  (** per-layer metrics (traced rounds only) *)
}

(* An accumulator for per-layer sums. *)
let table () : (string, float) Hashtbl.t = Hashtbl.create 64

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)
let to_list tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* The [jumps.*] quality figures of a set of [BENCH_results.json]-style
   rows: geometric means over (program, machine) at JUMPS of dynamic
   instructions, code bytes and fetch cost (the mean over the eight
   paper cache configurations), plus total dynamic unconditional jumps
   at JUMPS. *)
let quality_of_json rows =
  let jumps = List.filter (fun j -> Util.str_field "level" j = "JUMPS") rows in
  let fetch_cost j =
    match Telemetry.Json.to_list (Util.field "caches" j) with
    | Some (_ :: _ as cs) ->
      Util.sum (List.map (fun c -> float_of_int (Util.int_field "fetch_cost" c)) cs)
      /. float_of_int (List.length cs)
    | _ -> failwith "row has no caches"
  in
  let ints f = List.map (fun j -> float_of_int (Util.int_field f j)) jumps in
  [
    ("jumps.dyn_instrs_gm", Util.geomean (ints "dyn_instrs"));
    ("jumps.code_bytes_gm", Util.geomean (ints "code_bytes"));
    ("jumps.fetch_cost_gm", Util.geomean (List.map fetch_cost jumps));
    ("jumps.dyn_ujumps", Util.sum (ints "dyn_ujumps"));
  ]

let quality_of_rows rows = quality_of_json (List.map Util.parse_row rows)

(* Layer attribution of a traced round: the self time of each layer span,
   and what the traced tasks' wall time leaves unattributed. *)
let attribute spans layer_spans =
  let self = Spans.self_ms spans in
  let attributed =
    List.fold_left
      (fun acc name -> acc +. Option.value ~default:0. (Hashtbl.find_opt self name))
      0. layer_spans
  in
  let traced = Spans.root_ms spans in
  ( self,
    [
      ("unattributed_ms", traced -. attributed);
      ("unattributed_share", (traced -. attributed) /. traced);
    ] )
