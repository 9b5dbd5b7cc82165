(** Threaded-code execution engine.

    Compiles each pre-decoded function ({!Interp.Decoded}) into OCaml
    closure chains — one handler per instruction position — with
    superblock fusion: a straight-line run of simple instructions and
    its terminating transfer become a single handler that settles the
    run's bookkeeping in bulk and executes precompiled effect closures
    back to back, and a compare feeding the terminating conditional
    branch folds into the transfer itself.

    Observably equivalent to the reference oracle
    {!Interp.run_reference}: identical results and counts, identical
    [on_fetch] streams (per-instruction, in order, exact prefixes on
    faults and timeouts), identical [Sim_progress] heartbeats, and
    step-budget exhaustion at the exact instruction.  The equivalence
    tests hold the two to this over the full benchmark matrix.  The one
    latitude taken: an attached {!Telemetry.Budget} may be polled once
    per superblock rather than exactly every 2048 instructions —
    cancellation latency only, never a measured value. *)

(** [run asm prog] loads [prog]'s data and executes from [main].

    [on_fetch] is called once per executed instruction (delay slots
    included) with its code address and size — feed this to cache
    simulators.

    With [log], execution emits a [Sim_progress] heartbeat every
    {!Interp.progress_interval} executed instructions.

    With [budget], execution polls the budget every couple of thousand
    executed instructions: the budget's fuel axis caps [max_steps], and
    a passed wall-clock deadline or an externally set cancel flag raises
    {!Telemetry.Budget.Exhausted} out of the run — the
    cooperative-cancellation half of the {!Harness.Pool} supervisor's
    deadline enforcement.

    @raise Interp.Runtime_error on faults (null/of-range access,
    division by zero, jump-table index out of bounds, missing function).
    Step-budget exhaustion is {e not} a fault: the result comes back
    with partial output and [timed_out = true]. *)
val run :
  ?max_steps:int ->
  ?input:string ->
  ?on_fetch:(addr:int -> size:int -> unit) ->
  ?log:Telemetry.Log.t ->
  ?budget:Telemetry.Budget.t ->
  Asm.t ->
  Flow.Prog.t ->
  Interp.result

(** A compiled program: one closure array per decoded function. *)
type program

(** Compile a decode.  Exposed for the compile micro-benchmark; {!run}
    goes through the per-domain compile cache. *)
val compile : Interp.Decoded.t -> program

(** This domain's compile-cache [(hits, misses)] since it started.
    Like {!Interp.decode_cache_counters}, never part of a sweep's log. *)
val compile_cache_counters : unit -> int * int

(** Add this domain's compile-cache tallies into [metrics] as
    [sim.engine_cache.hits]/[sim.engine_cache.misses]. *)
val publish_cache_metrics : Telemetry.Metrics.t -> unit
