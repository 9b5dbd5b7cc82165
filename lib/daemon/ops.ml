(* The operations behind both front doors.

   `jumprepc compile/measure/lint/explain --json` and the daemon's
   request handlers call the same payload builders here, so a daemon
   result frame is byte-identical to the one-shot CLI's stdout by
   construction — the equivalence the CI daemon leg asserts, not a
   property anyone has to maintain twice. *)

module Json = Telemetry.Json
module Diag = Telemetry.Diag

(* A failed operation: the typed diagnostic plus the exit code the
   one-shot CLI would have died with (1 front-end/pipeline, 2 runtime
   error, 124 budget).  The daemon maps the exit code onto a wire error
   code; the CLI maps it straight to [exit]. *)
type failure = { diag : Diag.t; exit_code : int }

let fail ?(exit_code = 1) diag = Error { diag; exit_code }

let make_opts ?(verify = false) ?(certify = false) ?inject_fault ?budget level
    =
  {
    Opt.Driver.default_options with
    level;
    verify_passes = verify;
    certify;
    inject_fault;
    budget;
  }

(* Front-end failures as typed diagnostics with a file:line position —
   the same mapping (and message bytes) the CLI's error path prints. *)
let compile_source ?log ?(diags = ref []) ?verdicts opts machine ~path source =
  let err ?exit_code code fmt =
    Printf.ksprintf
      (fun message ->
        fail ?exit_code (Diag.make code ~func:"" ~pass:"" message))
      fmt
  in
  try Ok (Opt.Driver.compile ?log ~diags ?verdicts opts machine source) with
  | Frontend.Lexer.Error (msg, line) ->
    err Diag.Parse_error "%s:%d: lexical error: %s" path line msg
  | Frontend.Parser.Error (msg, line) ->
    err Diag.Parse_error "%s:%d: syntax error: %s" path line msg
  | Frontend.Codegen.Error msg -> err Diag.Semantic_error "%s: %s" path msg
  | Telemetry.Diag.Error d ->
    fail
      (Diag.make d.Diag.code ~func:d.Diag.func ~pass:d.Diag.pass
         (Printf.sprintf "%s: %s" path d.Diag.message))

let func_ujumps f =
  Array.fold_left
    (fun n b ->
      match Flow.Func.terminator b with
      | Some (Ir.Rtl.Jump _) | Some (Ir.Rtl.Ijump _) -> n + 1
      | Some _ | None -> n)
    0 (Flow.Func.blocks f)

(* --- compile: the `--stats-json` object --- *)

let compile_stats ~level ~(machine : Ir.Machine.t) prog =
  let asm = Sim.Asm.assemble machine prog in
  Json.Obj
    [
      ("level", Json.Str (Opt.Driver.level_name level));
      ("machine", Json.Str machine.Ir.Machine.short);
      ("static_instrs", Json.Int (Sim.Asm.static_instrs asm));
      ("static_ujumps", Json.Int (Sim.Asm.static_ujumps asm));
      ("static_nops", Json.Int (Sim.Asm.static_nops asm));
      ("code_bytes", Json.Int (Sim.Asm.code_bytes asm));
      ( "funcs",
        Json.Arr
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("name", Json.Str (Flow.Func.name f));
                   ("instrs", Json.Int (Flow.Func.num_instrs f));
                   ("blocks", Json.Int (Flow.Func.num_blocks f));
                   ("ujumps", Json.Int (func_ujumps f));
                 ])
             prog.Flow.Prog.funcs) );
    ]

let compile_payload ?log ?diags ?budget ~level ~machine ~path source =
  match
    compile_source ?log ?diags (make_opts ?budget level) machine ~path source
  with
  | Error _ as e -> e
  | Ok prog -> Ok (compile_stats ~level ~machine prog)

(* --- measure: the three-level comparison rows --- *)

let measure_rows ?log ?budget ?(verify = false) ~path ~name ~source
    ~input machine =
  let adhoc ?expected_output level =
    Harness.Measure.run_adhoc
      ~opts:(make_opts ~verify level)
      ?log ?budget ~name ~source ~input ?expected_output level machine
  in
  let err ?exit_code code fmt =
    Printf.ksprintf
      (fun message ->
        fail ?exit_code (Diag.make code ~func:"" ~pass:"" message))
      fmt
  in
  try
    (* The SIMPLE run is the reference output the other levels must
       match. *)
    let simple = adhoc Opt.Driver.Simple in
    Ok
      (simple
      :: List.map
           (fun level -> adhoc ~expected_output:simple.output level)
           [ Opt.Driver.Loops; Opt.Driver.Jumps ])
  with
  | Sim.Interp.Runtime_error msg ->
    err ~exit_code:2 Diag.Internal "%s: runtime error: %s" path msg
  | Frontend.Lexer.Error (msg, line) ->
    err Diag.Parse_error "%s:%d: lexical error: %s" path line msg
  | Frontend.Parser.Error (msg, line) ->
    err Diag.Parse_error "%s:%d: syntax error: %s" path line msg
  | Frontend.Codegen.Error msg -> err Diag.Semantic_error "%s: %s" path msg

let measure_json rows =
  Json.Arr (List.map (fun m -> Json.Raw (Harness.Measure.to_json m)) rows)

let measure_payload ?log ?budget ?verify ~path ~input machine source =
  match
    measure_rows ?log ?budget ?verify ~path ~name:(Filename.basename path)
      ~source ~input machine
  with
  | Error _ as e -> e
  | Ok rows -> Ok (measure_json rows)

(* --- lint: findings over the pre-allocation RTL --- *)

let lint_findings ?log ~level ~machine ~path source =
  (* Lint the pre-allocation RTL: virtual registers must survive so the
     uninitialized-read analysis can see them. *)
  let opts = { (make_opts level) with Opt.Driver.allocate = false } in
  let diags = ref [] in
  match compile_source ?log ~diags opts machine ~path source with
  | Error _ as e -> e
  | Ok prog ->
    (* Pipeline diagnostics (quarantined passes etc.) and lint findings
       share the rendering and the --strict policy. *)
    Ok (List.rev !diags @ Lint.check_prog prog)

let lint_json reports =
  Json.Arr
    (List.map
       (fun (t, findings) ->
         Json.Obj
           [
             ("target", Json.Str t);
             ( "findings",
               Json.Arr
                 (List.map (fun d -> Json.Raw (Diag.to_json d)) findings) );
           ])
       reports)

let lint_payload ~level ~machine ~path source =
  match lint_findings ~level ~machine ~path source with
  | Error _ as e -> e
  | Ok findings -> Ok (lint_json [ (path, findings) ])

(* --- certify: per-pass translation-validation verdicts --- *)

let certify_report ?log ?inject_fault ~level ~machine ~path source =
  let opts = make_opts ~certify:true ?inject_fault level in
  let diags = ref [] in
  let verdicts = ref [] in
  match compile_source ?log ~diags ~verdicts opts machine ~path source with
  | Error _ as e -> e
  | Ok _prog -> Ok (List.rev !verdicts, List.rev !diags)

let certify_summary verdicts =
  List.fold_left
    (fun (c, u, r) (v : Tv.record) ->
      match v.Tv.verdict with
      | Tv.Certified -> (c + 1, u, r)
      | Tv.Unknown _ -> (c, u + 1, r)
      | Tv.Refuted _ -> (c, u, r + 1))
    (0, 0, 0) verdicts

let certify_json ~target ~level ~(machine : Ir.Machine.t) verdicts =
  let verdict_fields = function
    | Tv.Certified -> []
    | Tv.Unknown { reason; timeout } ->
      [ ("reason", Json.Str reason); ("timeout", Json.Bool timeout) ]
    | Tv.Refuted { reason; path } ->
      [
        ("reason", Json.Str reason);
        ("path", Json.Arr (List.map (fun p -> Json.Str p) path));
      ]
  in
  let certified, unknown, refuted = certify_summary verdicts in
  Json.Obj
    [
      ("target", Json.Str target);
      ("level", Json.Str (Opt.Driver.level_name level));
      ("machine", Json.Str machine.Ir.Machine.short);
      ( "verdicts",
        Json.Arr
          (List.map
             (fun (r : Tv.record) ->
               Json.Obj
                 (("func", Json.Str r.Tv.vfunc)
                 :: ("pass", Json.Str r.Tv.vpass)
                 :: ("verdict", Json.Str (Tv.verdict_name r.Tv.verdict))
                 :: verdict_fields r.Tv.verdict))
             verdicts) );
      ( "summary",
        Json.Obj
          [
            ("certified", Json.Int certified);
            ("unknown", Json.Int unknown);
            ("refuted", Json.Int refuted);
          ] );
    ]

(* --- explain: the per-function replication report --- *)

let explain_report ~level ~machine ~path source =
  (* Trace the whole compilation in memory, then audit what is left. *)
  let log = Telemetry.Log.make Telemetry.Log.Memory in
  match compile_source ~log (make_opts level) machine ~path source with
  | Error _ as e -> e
  | Ok prog -> Ok (prog, Telemetry.Log.events log)

let explain_json prog events =
  (* The remaining jumps reuse the lint renderer: each decision is the
     same typed diagnostic `jumprepc lint --json` emits. *)
  Json.Arr
    (List.map
       (fun f ->
         let fname = Flow.Func.name f in
         let applied =
           List.length
             (List.filter
                (function
                  | Telemetry.Log.Replication_applied { func; _ } ->
                    String.equal func fname
                  | _ -> false)
                events)
         in
         Json.Obj
           [
             ("func", Json.Str fname);
             ("replicated", Json.Int applied);
             ( "remaining",
               Json.Arr
                 (List.map
                    (fun jd ->
                      Json.Raw
                        (Diag.to_json
                           (Lint.diag_of_decision ~func:fname ~pass:"explain"
                              jd)))
                    (Replication.Jumps.explain f)) );
           ])
       prog.Flow.Prog.funcs)

let explain_payload ~level ~machine ~path source =
  match explain_report ~level ~machine ~path source with
  | Error _ as e -> e
  | Ok (prog, events) -> Ok (explain_json prog events)
