(* campaign-j2: the 114-task sweep through [Campaign.Runner.sweep] into a
   fresh store, sharded over 2 worker processes (cold: the store's write
   path), then resumed over the full store (warm: its read path).

   The workers are this executable in worker mode: the campaign's own
   frame handler ([Campaign.Runner.worker_handler]), plus one line per
   task appended to a times file — the task's service time and the
   worker's peak RSS — before the reply goes out, so the line survives
   the SIGKILL that ends a worker at shutdown. *)

open Util

let workers = 2

let worker_main ~store ~times =
  let st = Campaign.Store.open_ store in
  let path = Printf.sprintf "%s.%d" times (Unix.getpid ()) in
  let handler payload =
    let reply, dt = time (fun () -> Campaign.Runner.worker_handler st payload) in
    if reply <> None then
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
        (fun oc -> Printf.fprintf oc "%.6f %d\n" (dt *. 1e3) (vmhwm_kb 0));
    reply
  in
  Campaign.Shard.serve ~handler ()

(* A round's directory holds its fresh store and the workers' times
   files. *)
type ctx = { dir : string; store : Campaign.Store.t; goldens : goldens; argv : string array }

let setup ~baseline ~work ~round () =
  let dir = Filename.concat work (Printf.sprintf "campaign-%d" round) in
  rm_rf dir;
  mkdir_p dir;
  let store_dir = Filename.concat dir "store" in
  {
    dir;
    store = Campaign.Store.open_ store_dir;
    goldens = load_goldens baseline;
    argv =
      [| Sys.executable_name; "--campaign-worker"; store_dir; Filename.concat dir "times" |];
  }

(* The workers' task latencies and their largest peak RSS. *)
let worker_times ctx =
  Array.fold_left
    (fun (ms, rss) f ->
      if String.starts_with ~prefix:"times." f then
        List.fold_left
          (fun (ms, rss) line -> Scanf.sscanf line "%f %d" (fun t r -> (t :: ms, max rss r)))
          (ms, rss)
          (In_channel.with_open_bin (Filename.concat ctx.dir f) In_channel.input_lines)
      else (ms, rss))
    ([], 0) (Sys.readdir ctx.dir)

let sweep ctx ~resume =
  Campaign.Runner.sweep ~store:ctx.store ~resume ~workers ~worker_argv:ctx.argv paper_tasks

(* (task key, problem) pairs of one phase. *)
let check ctx phase (rows, (s : Campaign.Runner.summary)) =
  let n = List.length paper_tasks in
  List.filter_map
    (fun (r : Campaign.Runner.row) ->
      let key = Printf.sprintf "%s/%s/%s" r.r_program r.r_level r.r_machine in
      let why =
        if r.r_timed_out then Some "timeout"
        else if not r.r_output_ok then Some "output differs from gcc's"
        else if r.r_row <> golden ctx.goldens key then Some "row differs from BENCH_baseline.json"
        else None
      in
      Option.map (fun w -> (key, Printf.sprintf "%s (%s)" w phase)) why)
    rows
  @ List.map
      (fun (f : Harness.Measure.task_failure) ->
        ( Printf.sprintf "%s/%s/%s" f.f_program (Opt.Driver.level_name f.f_level) f.f_machine,
          Printf.sprintf "%s (%s)" f.f_kind phase ))
      s.failures
  @
  if List.length rows + List.length s.failures <> n then
    [ (phase, Printf.sprintf "%d rows for %d tasks" (List.length rows) n) ]
  else if phase = "warm" && s.hits <> n then
    [ (phase, Printf.sprintf "%d of %d tasks resolved from the store" s.hits n) ]
  else []

let result ctx ~wall_s ~cold ~warm layers =
  let task_ms, rss = worker_times ctx in
  let rows = List.map (fun (r : Campaign.Runner.row) -> r.r_row) in
  {
    Round.wall_s;
    task_ms;
    attempted = List.length paper_tasks;
    failures = dedupe (check ctx "cold" cold @ check ctx "warm" warm);
    rows = rows (fst cold) @ rows (fst warm);
    quality = Round.quality_of_rows (rows (fst cold));
    child_rss_kb = rss;
    layers;
  }

let run ctx =
  let cold, cold_s = time (fun () -> sweep ctx ~resume:false) in
  let warm, warm_s = time (fun () -> sweep ctx ~resume:true) in
  result ctx ~wall_s:(cold_s +. warm_s) ~cold ~warm []

let traced ctx spans =
  let cold, warm =
    Spans.with_span spans ~parent:Spans.no_parent "round" (fun root ->
        let phase name resume =
          Spans.with_span spans ~parent:root name (fun _ -> sweep ctx ~resume)
        in
        let cold = phase "campaign.cold" false in
        let warm = phase "campaign.warm" true in
        (cold, warm))
  in
  let self, extra = Round.attribute spans [ "campaign.cold"; "campaign.warm" ] in
  let s name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let c = snd cold and w = snd warm in
  let task_ms, _ = worker_times ctx in
  let layers =
    [
      ("campaign.cold_ms", s "campaign.cold");
      ("campaign.warm_ms", s "campaign.warm");
      ("campaign.computed", float_of_int (c.computed + w.computed));
      ("campaign.hits", float_of_int (c.hits + w.hits));
      ("campaign.respawns", float_of_int (c.respawns + w.respawns));
      ("campaign.store_bytes", float_of_int (snd (Campaign.Store.disk_usage ctx.store)));
      ("campaign.parallel_eff", sum task_ms /. (float_of_int workers *. s "campaign.cold"));
      ("pool.retried", float_of_int (c.pool.retried + w.pool.retried));
      ("pool.respawned", float_of_int (c.pool.respawned + w.pool.respawned));
      ("pool.abandoned", float_of_int (c.pool.abandoned + w.pool.abandoned));
    ]
    @ extra
  in
  result ctx ~wall_s:(Spans.root_ms spans /. 1e3) ~cold ~warm layers

let close ctx = rm_rf ctx.dir
