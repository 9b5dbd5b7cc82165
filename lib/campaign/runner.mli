(** Crash-resumable measurement campaigns over the {!Store}.

    {!sweep} is the campaign-aware twin of [Harness.Measure.run_many]:
    every (benchmark, level, machine) task is keyed ({!Key.measure}),
    resolved against the store when resuming, and only the delta is
    computed — in-process on a supervised domain pool, or sharded over
    worker {e processes} ({!Shard}).  Workers commit each result to the
    store themselves before replying, so a campaign SIGKILLed at any
    point leaves only complete entries (plus journal leases) behind, and
    a resumed run recomputes exactly the missing tasks.

    Byte-stability: a store entry carries the *rendered* result row
    ([Harness.Measure.to_json], spliced back verbatim) and the
    measurement's telemetry counter deltas.  Rows are emitted in task
    order and counter sums commute, so a resumed, sharded or chaos-ridden
    campaign produces a [BENCH_results.json] byte-identical to a cold
    single-process run — the standing bit-stability contract. *)

type row = {
  r_program : string;
  r_level : string;  (** level name, e.g. ["JUMPS"] *)
  r_machine : string;  (** machine short name *)
  r_row : string;  (** the verbatim [BENCH_results.json] row *)
  r_output_ok : bool;
  r_timed_out : bool;
  r_counters : (string * int) list;  (** this measurement's deltas *)
  r_cached : bool;  (** resolved from the store, not computed *)
}

type summary = {
  total : int;
  hits : int;  (** tasks resolved from the store *)
  computed : int;  (** tasks measured this run *)
  corrupt : int;  (** corrupted entries recomputed *)
  kills : int;  (** chaos worker-process kills delivered *)
  respawns : int;  (** worker processes replaced *)
  failures : Harness.Measure.task_failure list;
      (** tasks with no result after every retry *)
  diags : Telemetry.Diag.t list;  (** [store-corrupt] diagnostics *)
  pool : Harness.Pool.stats;
}

(** The frame handler behind [bench --worker]: serve measure requests,
    committing each result to [store] before replying.  Returns [None]
    on [{"op":"quit"}]. *)
val worker_handler : Store.t -> string -> string option

(** Run a campaign.  [resume] resolves committed entries before
    dispatch; without it the store is (re)populated but never read.
    [workers > 0] shards over that many worker processes running
    [worker_argv] (required then); [workers = 0] computes in-process on
    [jobs] domains.  [chaos] drills deterministic faults: in-process via
    [Pool.supervise]'s injection, sharded as SIGKILLs of leased workers
    drawn from the same pure (seed, task, attempt) schedule.  Completed
    measurements' counters are replayed into [log] (cached and computed
    alike), so the caller's counters object matches a cold sweep. *)
val sweep :
  store:Store.t ->
  resume:bool ->
  ?workers:int ->
  ?worker_argv:string array ->
  ?jobs:int ->
  ?deadline:float ->
  ?retries:int ->
  ?chaos:Harness.Pool.chaos ->
  ?log:Telemetry.Log.t ->
  (Programs.Suite.benchmark * Opt.Driver.level * Ir.Machine.t) list ->
  row list * summary
