(** Offline reporting over the bench sweep's machine-readable outputs
    ([jumprepc report], and [bench -t 4|5|6|bb]).

    IO-free: {!parse_results} reads the {e contents} of a
    [BENCH_results.json] document, renderers return markdown strings, and
    {!dat_files} returns (filename, contents) pairs.  This is the only
    renderer of the paper's Tables 4-6 and section 5.2 statistics: the
    arithmetic is the paper's (mean of per-program percentage changes vs
    SIMPLE, miss-ratio deltas in percentage points), so the tables
    regenerate from the JSON alone. *)

type cache_row = {
  cr_config : string;
  cr_size_kb : int;
  cr_assoc : int;
  cr_ctx : bool;  (** context switching simulated *)
  cr_miss : float;
  cr_fetch : int;
}

type row = {
  program : string;
  level : string;  (** ["SIMPLE"], ["LOOPS"] or ["JUMPS"] *)
  machine : string;  (** ["risc"] or ["cisc"] *)
  static_instrs : int;
  static_ujumps : int;
  static_nops : int;
  code_bytes : int;
      (** total code bytes under the machine's encoding model (0 when the
          document predates the field) *)
  dyn_instrs : int;
  dyn_ujumps : int;
  dyn_nops : int;
  dyn_transfers : int;
  ibb : float;  (** instructions between branches *)
  output_ok : bool;
  timed_out : bool;
  caches : cache_row list;
}

type doc = { rows : row list; counters : (string * int) list }

(** Parse a [BENCH_results.json] document (the bench driver's [--json]
    output). *)
val parse_results : string -> (doc, string) result

val machines : doc -> string list
val programs : doc -> string list

(** Programs with all three levels measured on the machine — tasks lost
    to chaos drop out of comparisons instead of skewing them. *)
val complete_programs : doc -> string -> string list

val find : doc -> program:string -> level:string -> machine:string -> row option

(** {2 Sections}

    One markdown string per section; every section but {!verdict} opens
    with its [## ] heading and ends with a blank line. *)

(** Verification verdict (measurement count, failed rows) and the sweep
    counters. *)
val verdict : doc -> string

(** Table 5 shape: per machine, per-program static and dynamic
    instruction counts at SIMPLE with the LOOPS/JUMPS % change, and the
    mean of the per-program changes. *)
val table5 : doc -> string

(** Static code size in bytes, shaped like {!table5}; empty when some
    row lacks [code_bytes]. *)
val code_size : doc -> string

(** Table 4 shape: % of instructions that are unconditional jumps
    (static and dynamic, per level), mean and population standard
    deviation over programs. *)
val table4 : doc -> string

(** Table 6 shape: miss-ratio (percentage points) and fetch-cost
    (percent) deltas vs SIMPLE per cache size, context switching off and
    on. *)
val table6 : doc -> string

(** Section 5.2 statistics: mean dynamic instructions between branches
    per machine and level, and executed no-ops SIMPLE vs JUMPS with the
    share eliminated (machines that execute none are left out). *)
val section52 : doc -> string

(** The full markdown report: a [# title] line, then {!verdict},
    {!table5}, {!code_size}, {!table4}, {!table6} and {!section52}. *)
val render : ?title:string -> doc -> string

(** Markdown delta report between two sweeps: rows present in only one,
    rows whose static/dynamic counts changed, and the Table-5 means side
    by side. *)
val compare_docs : ?name_a:string -> ?name_b:string -> doc -> doc -> string

(** Gnuplot-ready data files: per machine, [instrs_MACHINE.dat]
    (per-program % changes) and [cache_MACHINE.dat] (per-size deltas,
    ctx switching off), tab-separated with a [#] header line. *)
val dat_files : doc -> (string * string) list

(** Markdown summary of a telemetry JSONL event stream
    ([--trace-out events.jsonl]): event counts by kind. *)
val summarize_events : string -> string
