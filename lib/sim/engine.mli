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

    [bank] takes the same fetch stream, with the same statistics as an
    [on_fetch] that calls {!Icache.Bank.access}.  On a bank with a
    {!Icache.Bank.line_shift}, each superblock's straight-line prefix
    goes in as its precomputed line runs ({!Icache.Bank.access_run});
    terminators, delay slots, line-straddling fetches and the
    fuel-exhaustion tail go in one fetch at a time, as does every fetch
    when [on_fetch] is given too.  A run that faults has no result, and
    its bank may hold the whole faulting superblock's fetches.

    With [log], execution emits a [Sim_progress] heartbeat every
    {!Interp.progress_interval} executed instructions.

    With [budget], execution polls the budget every couple of thousand
    executed instructions: the budget's fuel axis caps [max_steps], and
    a passed wall-clock deadline or an externally set cancel flag raises
    {!Telemetry.Budget.Exhausted} out of the run — the
    cooperative-cancellation half of the {!Harness.Pool} supervisor's
    deadline enforcement.

    The decode and its compiled program come from the sim cache
    ({!Interp.decode_cached}), so running one [asm]/[prog] pair again
    compiles nothing.

    @raise Interp.Runtime_error on faults (null/of-range access,
    division by zero, jump-table index out of bounds, missing function).
    Step-budget exhaustion is {e not} a fault: the result comes back
    with partial output and [timed_out = true]. *)
val run :
  ?max_steps:int ->
  ?input:string ->
  ?on_fetch:(addr:int -> size:int -> unit) ->
  ?bank:Icache.Bank.t ->
  ?log:Telemetry.Log.t ->
  ?budget:Telemetry.Budget.t ->
  Asm.t ->
  Flow.Prog.t ->
  Interp.result

(** A compiled program: one closure array per decoded function. *)
type program

(** Compile a decode.  Exposed for the compile micro-benchmark; {!run}
    goes through the sim cache. *)
val compile : Interp.Decoded.t -> program
