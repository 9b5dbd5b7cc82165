(** The operations behind both front doors.

    The CLI's [--json]/[--stats-json] paths and the daemon's request
    handlers build their machine-readable payloads here, so a daemon
    result frame is byte-identical to the one-shot CLI's stdout by
    construction. *)

(** A failed operation: the typed diagnostic plus the exit code the
    one-shot CLI dies with (1 front-end/pipeline failure, 2 runtime
    error, 124 budget).  The daemon maps [exit_code] onto a wire error
    code; the CLI maps it straight to [exit]. *)
type failure = { diag : Telemetry.Diag.t; exit_code : int }

(** The CLI's option set: [verify], [certify] and [inject_fault] off by
    default, [budget] the degrade budget threaded into the replication
    passes. *)
val make_opts :
  ?verify:bool ->
  ?certify:bool ->
  ?inject_fault:string ->
  ?budget:Telemetry.Budget.t ->
  Opt.Driver.level ->
  Opt.Driver.options

(** Compile a source string, mapping front-end exceptions
    (lexer/parser/codegen) and pipeline {!Telemetry.Diag.Error} to
    [failure]s whose messages carry a [path:line] position — the exact
    diagnostics the CLI prints. *)
val compile_source :
  ?log:Telemetry.Log.t ->
  ?diags:Telemetry.Diag.t list ref ->
  ?verdicts:Tv.record list ref ->
  Opt.Driver.options ->
  Ir.Machine.t ->
  path:string ->
  string ->
  (Flow.Prog.t, failure) result

(** Static unconditional-jump count of one function. *)
val func_ujumps : Flow.Func.t -> int

(** The [compile --stats-json] object for an optimized program. *)
val compile_stats :
  level:Opt.Driver.level -> machine:Ir.Machine.t -> Flow.Prog.t -> Telemetry.Json.t

(** Compile then {!compile_stats}. *)
val compile_payload :
  ?log:Telemetry.Log.t ->
  ?diags:Telemetry.Diag.t list ref ->
  ?budget:Telemetry.Budget.t ->
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  path:string ->
  string ->
  (Telemetry.Json.t, failure) result

(** The three-level comparison: a SIMPLE reference row, then LOOPS and
    JUMPS verified against its output.  [budget] bounds each
    interpretation (the per-request deadline); a simulated-program fault
    is a [failure] with [exit_code = 2]. *)
val measure_rows :
  ?log:Telemetry.Log.t ->
  ?budget:Telemetry.Budget.t ->
  ?verify:bool ->
  path:string ->
  name:string ->
  source:string ->
  input:string ->
  Ir.Machine.t ->
  (Harness.Measure.t list, failure) result

(** The [measure --stats-json] array for the rows. *)
val measure_json : Harness.Measure.t list -> Telemetry.Json.t

(** {!measure_rows} (named after the file's basename, as the CLI does)
    then {!measure_json}. *)
val measure_payload :
  ?log:Telemetry.Log.t ->
  ?budget:Telemetry.Budget.t ->
  ?verify:bool ->
  path:string ->
  input:string ->
  Ir.Machine.t ->
  string ->
  (Telemetry.Json.t, failure) result

(** Compile without register allocation and collect pipeline diagnostics
    plus {!Lint.check_prog} findings, in the CLI's order. *)
val lint_findings :
  ?log:Telemetry.Log.t ->
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  path:string ->
  string ->
  (Telemetry.Diag.t list, failure) result

(** The [lint --json] array for (target, findings) reports. *)
val lint_json : (string * Telemetry.Diag.t list) list -> Telemetry.Json.t

(** {!lint_findings} for one target, rendered as a one-element
    {!lint_json} array. *)
val lint_payload :
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  path:string ->
  string ->
  (Telemetry.Json.t, failure) result

(** Compile under [options.certify] and collect the static certifier's
    per-pass verdicts (chronological) alongside the pipeline diagnostics
    they produced.  [inject_fault] passes a PASS[:MODE] corruption spec
    through, so a deliberately broken pass shows up as a refutation. *)
val certify_report :
  ?log:Telemetry.Log.t ->
  ?inject_fault:string ->
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  path:string ->
  string ->
  (Tv.record list * Telemetry.Diag.t list, failure) result

(** (certified, unknown, refuted) counts over a verdict list. *)
val certify_summary : Tv.record list -> int * int * int

(** The [certify --json] object for one target: the verdict list (each
    with its reason and, for refutations, the counterexample path) and
    the summary counts. *)
val certify_json :
  target:string ->
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  Tv.record list ->
  Telemetry.Json.t

(** Compile with an in-memory event log: the optimized program plus the
    events the explain report audits. *)
val explain_report :
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  path:string ->
  string ->
  (Flow.Prog.t * Telemetry.Log.event list, failure) result

(** The [explain --json] array. *)
val explain_json :
  Flow.Prog.t -> Telemetry.Log.event list -> Telemetry.Json.t

(** {!explain_report} then {!explain_json}. *)
val explain_payload :
  level:Opt.Driver.level ->
  machine:Ir.Machine.t ->
  path:string ->
  string ->
  (Telemetry.Json.t, failure) result
