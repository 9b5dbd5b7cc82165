(* The two in-process workloads over the paper's corpus:

   - paper-sweep: the 114-task sweep (19 programs x 3 levels x 2
     machines) through [Harness.Measure.run_many] at one job, cold;
   - corpus-certify: the same 114 (program, level, machine) compiles with
     the static certifier on, assembled but not executed. *)

open Util
module M = Harness.Measure

let opt_passes =
  [ "licm"; "regalloc"; "isel"; "deadvars"; "gcse"; "cse"; "strength";
    "unreachable"; "branch-chain"; "constfold" ]

let replicate_passes = [ "replicate"; "replicate-final" ]

(* Every failure in [Measure]'s process-global lists, oldest first; a
   round keeps only those past the count it saw when it started. *)
let global_failures () =
  let fmt (p, l, m) = Printf.sprintf "%s/%s/%s" p (Opt.Driver.level_name l) m in
  List.map (fun x -> (fmt x, "output mismatch")) (M.mismatches ())
  @ List.map (fun x -> (fmt x, "timeout")) (M.timeouts ())
  @ List.map
      (fun (f : M.task_failure) ->
        ( Printf.sprintf "%s/%s/%s" f.f_program (Opt.Driver.level_name f.f_level) f.f_machine,
          f.f_kind ))
      (M.task_failures ())

let drop n l = List.filteri (fun i _ -> i >= n) l

let check_row goldens key (m : M.t) row =
  if m.timed_out then [ (key, "timeout") ]
  else if not m.output_ok then [ (key, "output differs from gcc's") ]
  else if row <> golden goldens key then [ (key, "row differs from BENCH_baseline.json") ]
  else []

(* --- per-pass figures of a traced compile ------------------------------ *)

let pass_layers tbl prof =
  List.iter
    (fun (r : Telemetry.Profiler.pass_row) ->
      let prefix =
        if List.mem r.p_pass replicate_passes then Some "core.replicate"
        else if r.p_pass = "displace" then Some "asm.displace"
        else if List.mem r.p_pass opt_passes then Some ("opt." ^ r.p_pass)
        else None
      in
      Option.iter
        (fun p ->
          Round.add tbl (p ^ ".ms") r.p_wall_ms;
          Round.add tbl (p ^ ".calls") (float_of_int r.p_calls);
          Round.add tbl (p ^ ".alloc_mw") (r.p_alloc_words /. 1e6))
        prefix)
    (Telemetry.Profiler.by_pass prof)

let event_layers tbl events =
  List.iter
    (function
      | Telemetry.Log.Fixpoint_iteration _ -> Round.add tbl "opt.fixpoint_iterations" 1.
      | Telemetry.Log.Pass_end { pass; delta = d; _ } when List.mem pass replicate_passes ->
        Round.add tbl "core.ujumps_removed" (float_of_int (d.ujumps_before - d.ujumps_after));
        Round.add tbl "core.rtls_added" (float_of_int (d.instrs_after - d.instrs_before))
      | _ -> ())
    events

let rtls (p : Flow.Prog.t) =
  List.fold_left (fun acc f -> acc + Flow.Func.num_instrs f) 0 p.funcs

(* Spans every traced task records, besides its own root span. *)
let layer_spans =
  [ "frontend"; "opt"; "asm"; "sim.decode"; "sim.run"; "icache"; "harness.verify" ]

let finish_layers tbl spans =
  let self, extra = Round.attribute spans layer_spans in
  let s name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let compile_ms = Round.get tbl "sim.engine_compile_ms" in
  (* [Engine.run] compiled the decode itself (its cache is keyed by the
     decode it made); that share is timed separately and moved out. *)
  let run_ms = s "sim.run" -. compile_ms in
  List.iter
    (fun (k, v) -> Round.add tbl k v)
    [
      ("frontend.ms", s "frontend");
      ("opt.ms", s "opt");
      ("asm.assemble_ms", s "asm");
      ("sim.decode_ms", s "sim.decode");
      ("sim.run_ms", run_ms);
      ("icache.ms", s "icache");
      ("harness.verify_ms", s "harness.verify");
    ];
  if run_ms > 0. then
    Round.add tbl "sim.minstr_per_s" (Round.get tbl "sim.instrs" /. run_ms /. 1e3);
  let accesses = Round.get tbl "icache.accesses" in
  if accesses > 0. then
    Round.add tbl "icache.ns_per_access" (s "icache" *. 1e6 /. accesses);
  Round.to_list tbl @ extra

(* --- paper-sweep ------------------------------------------------------- *)

let sweep_setup ~baseline () =
  M.reset_cache ();
  load_goldens baseline

let sweep_run goldens =
  let marks = List.length (global_failures ()) in
  let times = ref [] and rows = ref [] and failures = ref [] in
  let t_start = now () in
  List.iter
    (fun ((b, level, machine) as task) ->
      let key = task_key b level machine in
      let t0 = now () in
      match M.run_many [ task ] with
      | [ m ] ->
        times := ((now () -. t0) *. 1e3) :: !times;
        let row = M.to_json m in
        rows := row :: !rows;
        failures := !failures @ check_row goldens key m row
      | _ -> failures := !failures @ [ (key, "no measurement") ]
      | exception e -> failures := !failures @ [ (key, Printexc.to_string e) ])
    paper_tasks;
  let wall_s = now () -. t_start in
  let rows = List.rev !rows in
  {
    Round.wall_s;
    task_ms = !times;
    attempted = List.length paper_tasks;
    failures = dedupe (drop marks (global_failures ()) @ !failures);
    rows;
    quality = Round.quality_of_rows rows;
    child_rss_kb = 0;
    layers = [];
  }

(* The traced twin of [sweep_run]: the same measurement as
   [Measure.measure_raw], taken apart at its layer boundaries.  The
   fetch stream is recorded during the run and replayed through the
   cache bank afterwards, so no clock is read per fetch. *)
let sweep_traced goldens spans =
  let tbl = Round.table () in
  let prof = Telemetry.Profiler.create () in
  let fetches = ref (Array.make (1 lsl 16) 0) and n = ref 0 in
  let on_fetch ~addr ~size =
    if !n + 2 > Array.length !fetches then begin
      let a = Array.make (2 * Array.length !fetches) 0 in
      Array.blit !fetches 0 a 0 !n;
      fetches := a
    end;
    !fetches.(!n) <- addr;
    !fetches.(!n + 1) <- size;
    n := !n + 2
  in
  let rows = ref [] and failures = ref [] and times = ref [] in
  List.iter
    (fun (b, level, machine) ->
      let key = task_key b level machine in
      let log = Telemetry.Log.make Telemetry.Log.Memory in
      let decoded = ref None in
      (try
         Spans.with_span spans ~parent:Spans.no_parent "task" (fun task ->
             let sp name f = Spans.with_span spans ~parent:task name (fun _ -> f ()) in
             let t0 = now () in
             let src = sp "frontend" (fun () -> Frontend.Codegen.compile_source b.source) in
             Round.add tbl "frontend.rtls" (float_of_int (rtls src));
             let opts = { Opt.Driver.default_options with level } in
             let prog =
               sp "opt" (fun () -> Opt.Driver.optimize ~log ~profiler:prof opts machine src)
             in
             let asm = sp "asm" (fun () -> Sim.Asm.assemble machine prog) in
             Round.add tbl "asm.code_bytes" (float_of_int (Sim.Asm.code_bytes asm));
             (* Warm [Engine.run]'s decode cache with the decode it would
                make itself, so the decoder is timed on its own. *)
             decoded :=
               Some
                 (sp "sim.decode" (fun () ->
                      let image = Sim.Image.build_scratch prog in
                      Sim.Interp.decode_cached
                        ~symbol:(fun sym ->
                          match Sim.Image.symbol image sym with
                          | a -> Some a
                          | exception Not_found -> None)
                        asm prog));
             n := 0;
             let res =
               sp "sim.run" (fun () -> Sim.Engine.run ~input:b.input ~on_fetch asm prog)
             in
             let bank =
               sp "icache" (fun () ->
                   let bank = Icache.Bank.create Icache.paper_configs in
                   let f = !fetches in
                   let i = ref 0 in
                   while !i < !n do
                     Icache.Bank.access bank ~addr:f.(!i) ~size:f.(!i + 1);
                     i := !i + 2
                   done;
                   bank)
             in
             Round.add tbl "icache.accesses" (float_of_int (!n / 2));
             Round.add tbl "sim.instrs" (float_of_int res.counts.total);
             sp "harness.verify" (fun () ->
                 let m =
                   {
                     M.program = b.name;
                     level;
                     machine;
                     static_instrs = Sim.Asm.static_instrs asm;
                     static_ujumps = Sim.Asm.static_ujumps asm;
                     static_nops = Sim.Asm.static_nops asm;
                     code_bytes = Sim.Asm.code_bytes asm;
                     dyn_instrs = res.counts.total;
                     dyn_ujumps = Sim.Interp.uncond_jumps res.counts;
                     dyn_nops = res.counts.nops;
                     dyn_transfers = Sim.Interp.transfers res.counts;
                     output = res.output;
                     output_ok =
                       (not res.timed_out) && String.equal res.output b.expected_output;
                     timed_out = res.timed_out;
                     caches =
                       List.mapi
                         (fun i config ->
                           {
                             M.config;
                             miss_ratio = Icache.Bank.miss_ratio bank i;
                             fetch_cost = Icache.Bank.fetch_cost bank i;
                           })
                         Icache.paper_configs;
                   }
                 in
                 let row = M.to_json m in
                 rows := row :: !rows;
                 failures := !failures @ check_row goldens key m row);
             times := ((now () -. t0) *. 1e3) :: !times)
       with e -> failures := !failures @ [ (key, Printexc.to_string e) ]);
      (* Outside the task span: instrumentation-only work. *)
      Option.iter
        (fun d ->
          let _, dt = time (fun () -> Sim.Engine.compile d) in
          Round.add tbl "sim.engine_compile_ms" (dt *. 1e3))
        !decoded;
      event_layers tbl (Telemetry.Log.events log))
    paper_tasks;
  pass_layers tbl prof;
  let rows = List.rev !rows in
  {
    Round.wall_s = Spans.root_ms spans /. 1e3;
    task_ms = !times;
    attempted = List.length paper_tasks;
    failures = dedupe !failures;
    rows;
    quality = Round.quality_of_rows rows;
    child_rss_kb = 0;
    layers = finish_layers tbl spans;
  }

(* --- corpus-certify ---------------------------------------------------- *)

(* The static shape a certified compile must reproduce: certification
   only observes, so the code must equal the sweep's golden code. *)
let shape = Printf.sprintf "static_instrs=%d static_ujumps=%d static_nops=%d code_bytes=%d"

let shape_of_asm asm =
  shape (Sim.Asm.static_instrs asm) (Sim.Asm.static_ujumps asm) (Sim.Asm.static_nops asm)
    (Sim.Asm.code_bytes asm)

let shape_of_row row =
  let j = parse_row row in
  shape (int_field "static_instrs" j) (int_field "static_ujumps" j) (int_field "static_nops" j)
    (int_field "code_bytes" j)

let certify_setup ~baseline () =
  let g = load_goldens baseline in
  let shapes = Hashtbl.create 128 in
  Hashtbl.iter (fun k row -> Hashtbl.replace shapes k (shape_of_row row)) g;
  shapes

let verdict_counts tbl verdicts =
  List.iter
    (fun (r : Tv.record) ->
      Round.add tbl "tv.instances" 1.;
      match r.verdict with
      | Tv.Certified -> Round.add tbl "tv.certified" 1.
      | Tv.Unknown _ -> Round.add tbl "tv.unknown" 1.
      | Tv.Refuted _ -> Round.add tbl "tv.refuted" 1.)
    verdicts

let certify_check shapes key ~diags ~verdicts asm =
  let refuted =
    List.exists
      (fun (r : Tv.record) -> match r.verdict with Tv.Refuted _ -> true | _ -> false)
      verdicts
  in
  let shape = shape_of_asm asm in
  if refuted then [ (key, "certifier refuted a pass") ]
  else if Telemetry.Diag.has_errors diags then [ (key, "error diagnostic") ]
  else if shape <> Hashtbl.find shapes key then [ (key, "code differs from BENCH_baseline.json") ]
  else []

let certify_opts level = { Opt.Driver.default_options with level; certify = true }

let certify_finish ~wall_s ~times ~failures ~rows ~code_bytes tbl =
  {
    Round.wall_s;
    task_ms = times;
    attempted = List.length paper_tasks;
    failures = dedupe failures;
    rows = List.rev rows;
    quality = [ ("jumps.code_bytes_gm", geomean code_bytes) ];
    child_rss_kb = 0;
    layers = tbl;
  }

let certify_run shapes =
  let times = ref [] and rows = ref [] and failures = ref [] and code_bytes = ref [] in
  let t_start = now () in
  List.iter
    (fun (b, level, machine) ->
      let key = task_key b level machine in
      let t0 = now () in
      try
        let diags = ref [] and verdicts = ref [] in
        let prog = Opt.Driver.compile ~diags ~verdicts (certify_opts level) machine b.source in
        let asm = Sim.Asm.assemble machine prog in
        times := ((now () -. t0) *. 1e3) :: !times;
        failures := !failures @ certify_check shapes key ~diags:!diags ~verdicts:!verdicts asm;
        rows := (key ^ " " ^ shape_of_asm asm) :: !rows;
        if level = Opt.Driver.Jumps then
          code_bytes := float_of_int (Sim.Asm.code_bytes asm) :: !code_bytes
      with e -> failures := !failures @ [ (key, Printexc.to_string e) ])
    paper_tasks;
  let wall_s = now () -. t_start in
  certify_finish ~wall_s ~times:!times ~failures:!failures ~rows:!rows ~code_bytes:!code_bytes []

(* The traced twin of [certify_run].  The certifier's own cost is the
   difference between each traced compile and a certify-off compile of
   the same input, made outside the task span. *)
let certify_traced shapes spans =
  let tbl = Round.table () in
  let prof = Telemetry.Profiler.create () in
  let times = ref [] and rows = ref [] and failures = ref [] and code_bytes = ref [] in
  List.iter
    (fun (b, level, machine) ->
      let key = task_key b level machine in
      let log = Telemetry.Log.make Telemetry.Log.Memory in
      let src = ref None and opt_ms = ref 0. in
      (try
         Spans.with_span spans ~parent:Spans.no_parent "task" (fun task ->
             let sp name f = Spans.with_span spans ~parent:task name (fun _ -> f ()) in
             let t0 = now () in
             let p0 = sp "frontend" (fun () -> Frontend.Codegen.compile_source b.source) in
             src := Some p0;
             Round.add tbl "frontend.rtls" (float_of_int (rtls p0));
             let diags = ref [] and verdicts = ref [] in
             let prog, dt =
               sp "opt" (fun () ->
                   time (fun () ->
                       Opt.Driver.optimize ~log ~profiler:prof ~diags ~verdicts
                         (certify_opts level) machine p0))
             in
             opt_ms := dt *. 1e3;
             let asm = sp "asm" (fun () -> Sim.Asm.assemble machine prog) in
             Round.add tbl "asm.code_bytes" (float_of_int (Sim.Asm.code_bytes asm));
             sp "harness.verify" (fun () ->
                 verdict_counts tbl !verdicts;
                 failures :=
                   !failures @ certify_check shapes key ~diags:!diags ~verdicts:!verdicts asm;
                 rows := (key ^ " " ^ shape_of_asm asm) :: !rows);
             if level = Opt.Driver.Jumps then
               code_bytes := float_of_int (Sim.Asm.code_bytes asm) :: !code_bytes;
             times := ((now () -. t0) *. 1e3) :: !times)
       with e -> failures := !failures @ [ (key, Printexc.to_string e) ]);
      Option.iter
        (fun p0 ->
          let _, dt =
            time (fun () ->
                Opt.Driver.optimize
                  ~log:(Telemetry.Log.make Telemetry.Log.Memory)
                  ~profiler:(Telemetry.Profiler.create ())
                  { Opt.Driver.default_options with level } machine p0)
          in
          Round.add tbl "tv.ms" (!opt_ms -. (dt *. 1e3)))
        !src;
      event_layers tbl (Telemetry.Log.events log))
    paper_tasks;
  pass_layers tbl prof;
  let instances = Round.get tbl "tv.instances" in
  if instances > 0. then Round.add tbl "tv.unknown_share" (Round.get tbl "tv.unknown" /. instances);
  certify_finish ~wall_s:(Spans.root_ms spans /. 1e3) ~times:!times ~failures:!failures
    ~rows:!rows ~code_bytes:!code_bytes (finish_layers tbl spans)
