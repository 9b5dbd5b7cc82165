module Json = Telemetry.Json
module Diag = Telemetry.Diag
module Log = Telemetry.Log
module Measure = Harness.Measure
module Pool = Harness.Pool

type row = {
  r_program : string;
  r_level : string;
  r_machine : string;
  r_row : string;
  r_output_ok : bool;
  r_timed_out : bool;
  r_counters : (string * int) list;
  r_cached : bool;
}

type summary = {
  total : int;
  hits : int;
  computed : int;
  corrupt : int;
  kills : int;
  respawns : int;
  failures : Measure.task_failure list;
  diags : Diag.t list;
  pool : Pool.stats;
}

(* --- store entries --------------------------------------------------- *)

let counters_json counters =
  Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters)

let measure_entry ~key (b : Programs.Suite.benchmark) level
    (machine : Ir.Machine.t) (m : Measure.t) counters =
  Json.Obj
    [
      ("kind", Json.Str "measure/1");
      ("key", Json.Str key);
      ("program", Json.Str b.name);
      ("level", Json.Str (Opt.Driver.level_name level));
      ("machine", Json.Str machine.Ir.Machine.short);
      ("output_ok", Json.Bool m.output_ok);
      ("timed_out", Json.Bool m.timed_out);
      (* The rendered BENCH row, replayed verbatim on resume: rendering
         exactly once is what makes resumed output byte-identical. *)
      ("row", Json.Str (Measure.to_json m));
      ("counters", counters_json counters);
    ]

let counters_of_json = function
  | Json.Obj fields ->
    Some
      (List.filter_map
         (fun (n, v) -> match v with Json.Int i -> Some (n, i) | _ -> None)
         fields)
  | _ -> None

let row_of_entry ~cached j =
  let str name = Option.bind (Json.member name j) Json.get_string in
  let boolean name = Option.bind (Json.member name j) Json.get_bool in
  match
    ( str "program",
      str "level",
      str "machine",
      str "row",
      boolean "output_ok",
      boolean "timed_out",
      Option.bind (Json.member "counters" j) counters_of_json )
  with
  | ( Some r_program,
      Some r_level,
      Some r_machine,
      Some r_row,
      Some r_output_ok,
      Some r_timed_out,
      Some r_counters ) ->
    Some
      {
        r_program;
        r_level;
        r_machine;
        r_row;
        r_output_ok;
        r_timed_out;
        r_counters;
        r_cached = cached;
      }
  | _ -> None

(* --- the worker side ------------------------------------------------- *)

let error_reply msg =
  Json.to_string (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ])

(* Measure one task and commit its entry; returns the entry. *)
let measure_one ?budget store ~key b level machine =
  Store.record store ~key Fun.id (fun () ->
      let wlog = Log.make Log.Memory in
      let m = Measure.measure_raw ~log:wlog ?budget b level machine in
      let counters = Telemetry.Metrics.counters (Log.metrics wlog) in
      measure_entry ~key b level machine m counters)

let handle_measure store j =
  let str name = Option.bind (Json.member name j) Json.get_string in
  match (str "bench", str "level", str "machine", str "key") with
  | Some bench, Some level, Some machine, Some key -> (
    match
      ( Programs.Suite.find bench,
        Opt.Driver.level_of_string level,
        (match machine with
        | "risc" -> Some Ir.Machine.risc
        | "cisc" -> Some Ir.Machine.cisc
        | _ -> None) )
    with
    | Some b, Some level, Some mach -> (
      match measure_one store ~key b level mach with
      | exception e -> error_reply (Printexc.to_string e)
      | Json.Obj fields ->
        Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields))
      | _ -> assert false)
    | None, _, _ -> error_reply (Printf.sprintf "unknown benchmark %S" bench)
    | _, None, _ -> error_reply (Printf.sprintf "unknown level %S" level)
    | _, _, None -> error_reply (Printf.sprintf "unknown machine %S" machine))
  | _ -> error_reply "measure frame is missing fields"

let worker_handler store payload =
  match Json.parse payload with
  | Error e -> Some (error_reply ("unparsable request: " ^ e))
  | Ok j -> (
    match Option.bind (Json.member "op" j) Json.get_string with
    | Some "quit" -> None
    | Some "measure" -> Some (handle_measure store j)
    | Some op -> Some (error_reply (Printf.sprintf "unknown op %S" op))
    | None -> Some (error_reply "request has no op"))

(* --- the parent side ------------------------------------------------- *)

(* A freshly computed entry (or a worker's reply carrying one) as a row. *)
let fresh_row j =
  match row_of_entry ~cached:false j with
  | Some row -> row
  | None -> raise (Shard.Worker_failed "entry is missing measure fields")

let sweep ~store ~resume ?(workers = 0) ?worker_argv ?(jobs = 1) ?deadline
    ?(retries = 2) ?chaos ?(log = Log.null) tasks =
  let keyed =
    List.map (fun ((b, level, m) as t) -> (t, Key.measure b level m)) tasks
  in
  let cached : (string, row) Hashtbl.t = Hashtbl.create 128 in
  let diags = ref [] in
  if resume then
    List.iter
      (fun (_, key) ->
        if not (Hashtbl.mem cached key) then
          match
            Store.recall store key ~what:"measure" (row_of_entry ~cached:true)
          with
          | Store.Miss -> ()
          | Store.Corrupt d -> diags := d :: !diags
          | Store.Hit row -> Hashtbl.replace cached key row)
      keyed;
  let to_run =
    List.filter (fun (_, key) -> not (Hashtbl.mem cached key)) keyed
  in
  let label ((b, level, m), _) =
    Printf.sprintf "%s/%s/%s" b.Programs.Suite.name
      (Opt.Driver.level_name level)
      m.Ir.Machine.short
  in
  let outcomes, pstats, kills, respawns =
    if to_run = [] then ([], Pool.no_stats, 0, 0)
    else if workers > 0 then begin
      (* Sharded: one supervising domain per worker process; the domain
         task leases a process, ships the request over the pipe, and the
         worker computes *and commits* before replying — a SIGKILL
         between those two loses at most the in-flight task. *)
      let argv =
        match worker_argv with
        | Some a -> a
        | None -> invalid_arg "Runner.sweep: workers > 0 needs worker_argv"
      in
      let sh = Shard.create ~workers ~argv in
      (* Chaos kills are drawn from the same pure (seed, task, attempt)
         schedule as the in-process pool; attempts are counted here
         because the pool does not expose them to the task body. *)
      let amu = Mutex.create () in
      let attempts : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let next_attempt i =
        Mutex.lock amu;
        let a = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts i) in
        Hashtbl.replace attempts i a;
        Mutex.unlock amu;
        a
      in
      let indexed = List.mapi (fun i t -> (i, t)) to_run in
      let outcomes, pstats =
        Pool.supervise ~jobs:workers ?deadline ~retries
          ~label:(fun (_, t) -> label t)
          (fun budget (i, ((b, level, mach), key)) ->
            ignore b;
            let attempt = next_attempt i in
            let kill =
              match chaos with
              | None -> false
              | Some c -> Pool.chaos_fault c ~task:i ~attempt <> None
            in
            let req =
              Json.to_string
                (Json.Obj
                   [
                     ("op", Json.Str "measure");
                     ("bench", Json.Str b.Programs.Suite.name);
                     ("level", Json.Str (Opt.Driver.level_name level));
                     ("machine", Json.Str mach.Ir.Machine.short);
                     ("key", Json.Str key);
                   ])
            in
            let reply = Shard.call sh ~budget ~kill req in
            match Json.parse reply with
            | Error e -> raise (Shard.Worker_failed ("unparsable reply: " ^ e))
            | Ok j -> (
              match Option.bind (Json.member "ok" j) Json.get_bool with
              | Some true -> fresh_row j
              | _ ->
                let msg =
                  Option.value ~default:"worker error"
                    (Option.bind (Json.member "error" j) Json.get_string)
                in
                raise (Shard.Worker_failed msg)))
          indexed
      in
      let kills = Shard.kills sh and respawns = Shard.respawns sh in
      Shard.shutdown sh;
      (outcomes, pstats, kills, respawns)
    end
    else begin
      let outcomes, pstats =
        Pool.supervise ~jobs ?deadline ~retries ?chaos ~label
          (fun budget ((b, level, mach), key) ->
            fresh_row (measure_one ~budget store ~key b level mach))
          to_run
      in
      (outcomes, pstats, 0, 0)
    end
  in
  let computed : (string, row) Hashtbl.t = Hashtbl.create 128 in
  let failures = ref [] in
  List.iter2
    (fun ((b, level, mach), key) outcome ->
      match outcome with
      | Pool.Done row -> Hashtbl.replace computed key row
      | (Pool.Crashed _ | Pool.Timed_out _) as o ->
        Option.iter
          (fun f -> failures := f :: !failures)
          (Measure.failure_of_outcome b level mach o))
    to_run outcomes;
  (* Final rows in task order — failed tasks are simply absent, as in a
     cold sweep.  Counter replay: stored and fresh deltas sum in the
     caller's registry; counter addition commutes and the registry
     renders name-sorted, so the counters object matches a cold run. *)
  let rows =
    List.filter_map
      (fun (_, key) ->
        match Hashtbl.find_opt cached key with
        | Some row -> Some row
        | None -> Hashtbl.find_opt computed key)
      keyed
  in
  List.iter
    (fun r ->
      List.iter (fun (n, v) -> Telemetry.Counter.add log n v) r.r_counters)
    rows;
  let hits = List.length (List.filter (fun r -> r.r_cached) rows) in
  ( rows,
    {
      total = List.length keyed;
      hits;
      computed = List.length rows - hits;
      corrupt = List.length !diags;
      kills;
      respawns;
      failures = List.rev !failures;
      diags = List.rev !diags;
      pool = pstats;
    } )
