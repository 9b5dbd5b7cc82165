(* The repository benchmark: one workload per invocation, run for a fixed
   window, its outputs checked, its metrics printed by name with unit and
   sample count, and a one-line JSON result last on stdout.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --jumprepc PATH
     main.exe --describe        print BENCHMARK.json

   See README.md in this directory for what each workload and metric
   means and which end-to-end metric each layer metric should move. *)

open Util

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* (name, unit, direction, bound) *)
let end_to_end =
  [
    ("setup_s", "s", Lower, 0.25);
    ("wall_s", "s", Lower, 0.25);
    ("tasks_per_s", "1/s", Higher, 0.25);
    ("task_p50_ms", "ms", Lower, 0.25);
    ("task_p90_ms", "ms", Lower, 0.25);
    ("peak_rss_mb", "MB", Lower, 0.1);
    ("jumps.code_bytes_gm", "bytes", Lower, 0.05);
  ]

let pass_metrics prefix =
  [ (prefix ^ ".ms", "ms", Lower); (prefix ^ ".calls", "count", Lower);
    (prefix ^ ".alloc_mw", "Mwords", Lower) ]

(* (name, unit, direction) *)
let per_layer =
  [ ("frontend.ms", "ms", Lower); ("frontend.rtls", "count", Lower); ("opt.ms", "ms", Lower) ]
  @ List.concat_map (fun p -> pass_metrics ("opt." ^ p)) Paper.opt_passes
  @ [ ("opt.fixpoint_iterations", "count", Lower) ]
  @ pass_metrics "core.replicate"
  @ [ ("core.ujumps_removed", "count", Higher); ("core.rtls_added", "count", Lower) ]
  @ pass_metrics "asm.displace"
  @ [
      ("asm.assemble_ms", "ms", Lower);
      ("asm.code_bytes", "bytes", Lower);
      ("tv.ms", "ms", Lower);
      ("tv.instances", "count", Higher);
      ("tv.certified", "count", Higher);
      ("tv.unknown", "count", Lower);
      ("tv.refuted", "count", Lower);
      ("tv.unknown_share", "share", Lower);
      ("sim.decode_ms", "ms", Lower);
      ("sim.engine_compile_ms", "ms", Lower);
      ("sim.run_ms", "ms", Lower);
      ("sim.instrs", "count", Lower);
      ("sim.minstr_per_s", "Minstr/s", Higher);
      ("icache.ms", "ms", Lower);
      ("icache.accesses", "count", Lower);
      ("icache.ns_per_access", "ns", Lower);
      ("harness.verify_ms", "ms", Lower);
      ("pool.retried", "count", Lower);
      ("pool.respawned", "count", Lower);
      ("pool.abandoned", "count", Lower);
      ("unattributed_ms", "ms", Lower);
      ("unattributed_share", "share", Lower);
      ("campaign.cold_ms", "ms", Lower);
      ("campaign.warm_ms", "ms", Lower);
      ("campaign.computed", "count", Lower);
      ("campaign.hits", "count", Higher);
      ("campaign.respawns", "count", Lower);
      ("campaign.store_bytes", "bytes", Lower);
      ("campaign.parallel_eff", "share", Higher);
      ("daemon.server_ms", "ms", Lower);
      ("daemon.wait_ms", "ms", Lower);
      ("daemon.requests", "count", Higher);
      ("daemon.rejected", "count", Lower);
      ("daemon.errors", "count", Lower);
      ("gc.minor_mw", "Mwords", Lower);
      ("gc.promoted_mw", "Mwords", Lower);
      ("gc.major_collections", "count", Lower);
      ("trace.overhead_ms", "ms", Lower);
      ("trace.overhead_share", "share", Lower);
      ("failed_share", "share", Lower);
      ("jumps.dyn_instrs_gm", "count", Lower);
      ("jumps.fetch_cost_gm", "cycles", Lower);
      ("jumps.dyn_ujumps", "count", Lower);
    ]

(* --- workloads --------------------------------------------------------- *)

type instance = { run : unit -> Round.t; traced : Spans.t -> Round.t; close : unit -> unit }

type env = { seed : int; work : string; jumprepc : string; baseline : string }

type workload = { name : string; why : string; prepare : env -> round:int -> instance }

let in_process setup run traced env ~round:_ =
  let ctx = setup ~baseline:env.baseline () in
  { run = (fun () -> run ctx); traced = traced ctx; close = ignore }

let workloads =
  [
    {
      name = "paper-sweep";
      why =
        "the paper's 114-measurement sweep run cold in-process at one job: compile and \
         execution plus the cache bank, checked against the gcc goldens";
      prepare = in_process Paper.sweep_setup Paper.sweep_run Paper.sweep_traced;
    };
    {
      name = "corpus-certify";
      why =
        "the same 114 compiles with the static certifier on and no execution: stresses the \
         optimizer, replication and tv, bypasses sim and icache";
      prepare = in_process Paper.certify_setup Paper.certify_run Paper.certify_traced;
    };
    {
      name = "campaign-j2";
      why =
        "the sweep sharded over 2 worker processes into a fresh store, then resumed from it: \
         the only parallel workload and the only one through Shard and Store";
      prepare =
        (fun env ~round ->
          let ctx = Campaign_j2.setup ~baseline:env.baseline ~work:env.work ~round () in
          {
            run = (fun () -> Campaign_j2.run ctx);
            traced = Campaign_j2.traced ctx;
            close = (fun () -> Campaign_j2.close ctx);
          });
    };
    {
      name = "serve-closed";
      why =
        "a jumprepc serve -j 2 daemon driven by 2 closed-loop connections with seeded \
         measure and compile requests: the only workload through the daemon";
      prepare =
        (fun env ~round ->
          let ctx =
            Serve_closed.setup ~baseline:env.baseline ~jumprepc:env.jumprepc ~work:env.work
              ~round ~seed:env.seed ()
          in
          {
            run = (fun () -> Serve_closed.run ctx);
            traced = Serve_closed.traced ctx;
            close = (fun () -> Serve_closed.close ctx);
          });
    };
  ]

(* --- BENCHMARK.json ---------------------------------------------------- *)

let describe () =
  let module J = Telemetry.Json in
  let doc =
    J.Obj
      [
        ("command", J.Arr [ J.Str "python3"; J.Str "perfbench/run.py" ]);
        ("paths", J.Arr [ J.Str "perfbench" ]);
        ("run_seconds", J.Int 24);
        ( "workloads",
          J.Arr
            (List.map (fun w -> J.Obj [ ("name", J.Str w.name); ("why", J.Str w.why) ]) workloads)
        );
        ( "end_to_end",
          J.Arr
            (List.map
               (fun (name, unit, better, bound) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("unit", J.Str unit);
                     ("better", J.Str (better_name better));
                     ("bound", J.Float bound);
                   ])
               end_to_end) );
        ( "per_layer",
          J.Arr
            (List.map
               (fun (name, unit, better) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("unit", J.Str unit);
                     ("better", J.Str (better_name better));
                   ])
               per_layer) );
      ]
  in
  print_endline (J.to_string doc)

(* --- the measurement window -------------------------------------------- *)

type gc_delta = { minor : float; promoted : float; majors : int }

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      minor = s1.minor_words -. s0.minor_words;
      promoted = s1.promoted_words -. s0.promoted_words;
      majors = s1.major_collections - s0.major_collections;
    } )

type window = {
  setups : float list;
  plain : (Round.t * gc_delta) list;  (** untraced rounds, oldest first *)
  traced : (Round.t * Spans.t) list;
}

(* Rounds until [seconds] have passed, each on freshly set-up state; with
   tracing, untraced and traced rounds alternate so both see the same
   conditions.  At least one round of each kind runs. *)
let measure wl env ~seconds ~trace =
  let t_end = now () +. seconds in
  let rec loop round w =
    let need_plain = w.plain = [] and need_traced = trace && w.traced = [] in
    if now () >= t_end && not (need_plain || need_traced) then w
    else begin
      Gc.compact ();
      let inst, setup_s = time (fun () -> wl.prepare env ~round) in
      let traced_round = trace && round mod 2 = 1 in
      let w =
        Fun.protect ~finally:inst.close (fun () ->
            if traced_round then
              let spans = Spans.create () in
              { w with traced = w.traced @ [ (inst.traced spans, spans) ] }
            else { w with plain = w.plain @ [ gc_delta inst.run ] })
      in
      loop (round + 1) { w with setups = w.setups @ [ setup_s ] }
    end
  in
  loop 0 { setups = []; plain = []; traced = [] }

(* --- reporting ---------------------------------------------------------- *)

let fmt_value v = Printf.sprintf "%.17g" v

let metric_json (name, unit, value) =
  Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Telemetry.Log.json_string name)
    (fmt_value value) (Telemetry.Log.json_string unit)

let main ~workload ~seed ~seconds ~trace ~jumprepc =
  let wl =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  let baseline = "BENCH_baseline.json" in
  if not (Sys.file_exists baseline) then failwith (baseline ^ " not found: run from a checkout");
  let work = Filename.concat ".perfbench" (Printf.sprintf "%s-%d" wl.name (Unix.getpid ())) in
  mkdir_p work;
  let env = { seed; work; jumprepc; baseline } in
  let w = Fun.protect ~finally:(fun () -> rm_rf work) (fun () -> measure wl env ~seconds ~trace) in
  let plain = List.map fst w.plain and traced = List.map fst w.traced in
  let rounds = plain @ traced in
  let attempted = List.fold_left (fun a (r : Round.t) -> a + r.attempted) 0 rounds in
  let failures = List.concat_map (fun (r : Round.t) -> r.failures) rounds in
  (* A traced round must reproduce the untraced rows byte for byte. *)
  let reference = (List.hd plain).rows in
  let diverged =
    List.concat_map
      (fun (r : Round.t) ->
        if r.rows = reference then []
        else [ "traced round rows differ from the untraced rows" ])
      traced
  in
  let failures = failures @ diverged in
  let failed = List.length failures in
  let med f l = median (List.map f l) in
  (* (value, sample count) of each metric, by name. *)
  let value =
    if not trace then begin
      let tasks = List.concat_map (fun (r : Round.t) -> r.task_ms) plain in
      let nt = List.length tasks and np = List.length plain in
      function
      | "setup_s" -> (median w.setups, List.length w.setups)
      | "wall_s" -> (med (fun (r : Round.t) -> r.wall_s) plain, np)
      | "tasks_per_s" ->
        (med (fun (r : Round.t) -> float_of_int (List.length r.task_ms) /. r.wall_s) plain, np)
      | "task_p50_ms" -> (median tasks, nt)
      | "task_p90_ms" -> (percentile 0.9 tasks, nt)
      | "peak_rss_mb" ->
        let kb = List.fold_left (fun a (r : Round.t) -> max a r.child_rss_kb) (vmhwm_kb 0) plain in
        (float_of_int kb /. 1024., 1)
      | name -> (med (fun (r : Round.t) -> List.assoc name r.quality) plain, np)
    end
    else begin
      let nt = List.length traced and np = List.length plain in
      let gc f = med f (List.map snd w.plain) in
      let overhead_s =
        med (fun (r : Round.t) -> r.wall_s) traced -. med (fun (r : Round.t) -> r.wall_s) plain
      in
      function
      | "gc.minor_mw" -> (gc (fun g -> g.minor /. 1e6), np)
      | "gc.promoted_mw" -> (gc (fun g -> g.promoted /. 1e6), np)
      | "gc.major_collections" -> (gc (fun g -> float_of_int g.majors), np)
      | "trace.overhead_ms" -> (overhead_s *. 1e3, nt)
      | "trace.overhead_share" ->
        (overhead_s /. med (fun (r : Round.t) -> r.wall_s) plain, nt)
      | "failed_share" -> (float_of_int failed /. float_of_int attempted, List.length rounds)
      | name ->
        (* A layer a workload does not exercise reports 0. *)
        ( med
            (fun (r : Round.t) ->
              match List.assoc_opt name r.layers with
              | Some v -> v
              | None -> Option.value ~default:0. (List.assoc_opt name r.quality))
            traced,
          nt )
    end
  in
  let catalogue =
    if trace then List.map (fun (n, u, _) -> (n, u)) per_layer
    else List.map (fun (n, u, _, _) -> (n, u)) end_to_end
  in
  let samples =
    List.map
      (fun (name, unit) ->
        let v, n = value name in
        (name, unit, v, n))
      catalogue
  in
  let traces = Filename.concat ".perfbench" "traces" in
  List.iteri
    (fun i (_, spans) ->
      mkdir_p traces;
      Spans.write spans
        (Filename.concat traces (Printf.sprintf "%s-seed%d-round%d.json" wl.name seed i)))
    w.traced;
  Printf.printf "perfbench: workload %s, seed %d, %s, %d untraced + %d traced rounds\n" wl.name
    seed
    (if trace then "traced" else "untraced")
    (List.length plain) (List.length traced);
  List.iter
    (fun (name, unit, v, n) -> Printf.printf "  %-32s %16.4f %-9s n=%d\n" name v unit n)
    samples;
  let walls l =
    String.concat " " (List.map (fun (r : Round.t) -> Printf.sprintf "%.3f" r.wall_s) l)
  in
  Printf.printf "  rounds: setup_s %s\n  rounds: wall_s untraced %s | traced %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") w.setups))
    (walls plain) (walls traced);
  List.iteri (fun i f -> if i < 20 then Printf.printf "  FAILED %s\n" f) failures;
  (* A metric with no finite value (every task of a kind failed) makes
     the run incorrect; it is printed as 0 to keep the line valid JSON. *)
  let finite = List.for_all (fun (_, _, v, _) -> Float.is_finite v) samples in
  if not finite then print_endline "  a metric has no finite value";
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (failed = 0 && finite) attempted failed
    (String.concat ","
       (List.map
          (fun (n, u, v, _) -> metric_json (n, u, if Float.is_finite v then v else 0.))
          samples))

let () =
  match Array.to_list Sys.argv with
  | _ :: "--campaign-worker" :: store :: times :: _ ->
    (* Worker mode, before the GC settings: a campaign worker process
       runs with the defaults, as [jumprepc worker] does. *)
    Campaign_j2.worker_main ~store ~times
  | _ :: "--describe" :: _ -> describe ()
  | _ ->
    (* [bench/main.exe]'s GC settings. *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 200 };
    let workload = ref "" and seed = ref 1 and seconds = ref 24. and trace = ref 0 in
    let jumprepc = ref "_build/default/bin/jumprepc.exe" in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, "NAME workload to run");
        ("--seed", Arg.Set_int seed, "N seed of the workload's inputs");
        ("--seconds", Arg.Set_float seconds, "S length of the measurement window");
        ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
        ("--jumprepc", Arg.Set_string jumprepc, "PATH jumprepc executable (serve-closed)");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "main.exe --workload NAME --seed N --seconds S --trace 0|1";
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~jumprepc:!jumprepc
