(** Supervised fixed-size Domain worker pool (OCaml 5 [Domain] + [Atomic]).

    One supervisor, two ways to drive it.  {!Service} keeps resident
    worker domains and runs each submitted task as a sequence of attempts
    while its {!Service.tick} — driven by the caller — delivers results,
    detects dead workers and respawns them, enforces a per-task
    wall-clock deadline (cooperative cancellation through a
    {!Telemetry.Budget} first, abandon-and-reschedule on a fresh domain
    after a 2x grace period), and retries transient failures on a
    deterministic capped exponential backoff.  {!supervise} runs a batch:
    inline on the calling domain for one job, else on a fresh {!Service}
    driven to completion.  Every task ends in a structured {!outcome} — a
    crash or hang of one task never takes down the batch or loses sibling
    results.

    Determinism: results land in input order, and chaos fault injection is
    a pure function of (seed, task index, attempt), so any task that
    completes produces the same value it would in a sequential run,
    whatever the job count.  Callers own full determinism by keeping
    shared mutable state out of the task function and folding the
    (index-ordered) results on the parent. *)

(** [JUMPREP_JOBS] from the environment.  1 when unset; an unparsable or
    non-positive value warns on stderr and falls back to 1; a value over
    4x [Domain.recommended_domain_count ()] warns and clamps to the
    recommended count. *)
val default_jobs : unit -> int

(** [clamp_jobs ~what n] — the shared worker-count clamp behind
    {!default_jobs}: a non-positive [n] warns (naming [what], default
    ["JUMPREP_JOBS"]) and falls back to 1; over 4x
    [Domain.recommended_domain_count ()] warns and clamps to the
    recommended count.  Campaign [--workers] counts go through the same
    clamp as the domain pool. *)
val clamp_jobs : ?what:string -> int -> int

(** [parse_jobs ~what s] — parse a job count string with the
    {!clamp_jobs} discipline; unparsable input warns and falls back
    to 1. *)
val parse_jobs : ?what:string -> string -> int

(** How one supervised task ended. *)
type 'a outcome =
  | Done of 'a
  | Crashed of { exn : exn; backtrace : string; attempts : int }
      (** every attempt raised; [exn]/[backtrace] are from the last *)
  | Timed_out of { elapsed : float; attempts : int }
      (** every attempt hit the deadline (or was cancelled) *)

(** ["done"], ["crashed"] or ["timed-out"]. *)
val outcome_kind : _ outcome -> string

(** What the supervisor saw over one {!supervise} call or over a
    {!Service}'s lifetime. *)
type stats = {
  injected_crashes : int;  (** chaos crashes injected *)
  injected_hangs : int;  (** chaos hangs injected *)
  injected_allocs : int;  (** chaos allocation storms injected *)
  retried : int;  (** failed attempts rescheduled *)
  respawned : int;  (** replacement workers spawned *)
  abandoned : int;  (** attempts overdue past the grace period *)
}

val no_stats : stats

(** Total chaos faults injected. *)
val injected : stats -> int

(** Publish the tallies into a {!Telemetry.Metrics} registry as the
    [pool.injected_crashes], [pool.injected_hangs], [pool.injected_allocs],
    [pool.retried], [pool.respawned] and [pool.abandoned] counters.
    No-op on a disabled registry.

    Determinism: the injected and retried counts derive from the pure
    chaos schedule, so they are identical at any [jobs] (asserted by the
    chaos-determinism test).  [respawned] is a scheduling artifact — the
    inline path never loses a domain, and a crash near the end of the
    queue may or may not warrant a replacement — so it is excluded from
    that contract. *)
val stats_to_metrics : stats -> Telemetry.Metrics.t -> unit

(** [backoff attempt] — seconds to wait before rescheduling after failed
    attempt number [attempt] (1-based): [base * 2^(attempt-1)] capped at
    [cap] (defaults 0.05s and 0.8s).  Pure; no randomized jitter, so
    retry schedules are reproducible. *)
val backoff : ?base:float -> ?cap:float -> int -> float

(** Deterministic fault injection: per attempt, a fault is drawn from a
    pure hash of ([chaos_seed], task index, attempt number) against the
    per-kind rates (each a probability in 0..1; at most one fault fires
    per attempt). *)
type chaos = {
  crash : float;  (** kill the worker domain mid-task *)
  hang : float;  (** busy-wait until cancelled/released/capped *)
  alloc : float;  (** allocate ~64MB of garbage, then run normally *)
  chaos_seed : int;
}

(** The exception an injected crash raises through the worker. *)
exception Chaos_crash

(** The pure fault draw behind chaos injection: the fault (if any) for
    attempt [attempt] of task index [task].  Exposed so campaign shards
    can drill worker-*process* kills from the same deterministic
    schedule the domain pool uses. *)
val chaos_fault :
  chaos -> task:int -> attempt:int -> [ `Crash | `Hang | `Alloc ] option

(** Parse a [--chaos] spec: comma-separated [crash], [hang], [alloc]
    (each optionally [:RATE], default 0.1) and [seed:N] (default 1).
    E.g. ["crash:0.2,hang:0.05,seed:7"]. *)
val chaos_of_string : string -> (chaos, string) result

(** [supervise ~jobs ~deadline ~retries ~chaos f xs] runs [f budget x]
    for each [x] and returns the outcomes in input order plus supervisor
    statistics.  With [jobs <= 1] the items run inline on the calling
    domain, spawning none (an injected hang is charged as a timed-out
    attempt without spinning); otherwise each item [i] is submission [i]
    of a fresh {!Service} with [min jobs (List.length xs)] workers, ticked
    until every item has an outcome and then shut down.

    Each attempt gets a fresh budget carrying [deadline] (seconds of
    wall-clock); [f] should poll it at safepoints (the interpreter does,
    via its fuel accounting).  An attempt that raises
    [Telemetry.Budget.Exhausted] counts as timed out; any other exception
    counts as crashed; either is retried up to [retries] times (default
    2) after a {!backoff} pause.  A worker domain that dies is detected,
    accounted, and replaced; an attempt still running at twice the
    deadline is abandoned to a fresh domain and its worker retired.  The
    final join is bounded: a worker wedged in non-cooperative code is
    left behind rather than wedging the caller.

    With [trace], every attempt is recorded as a complete span on its
    worker's lane (tid 1..jobs — a respawned replacement inherits its
    predecessor's lane, and the inline [jobs <= 1] path records on lane
    1), chaos faults as [chaos-crash]/[chaos-hang]/[chaos-alloc] instants
    on the same lane, and supervisor decisions ([task-retry],
    [worker-died], [worker-respawn], [deadline-cancel],
    [deadline-abandon]) as instants on lane 0.  [label] names each span
    after its work item (default ["task-N"]).  Tracing never alters
    scheduling, attempts, or outcomes. *)
val supervise :
  ?jobs:int ->
  ?deadline:float ->
  ?retries:int ->
  ?chaos:chaos ->
  ?trace:Telemetry.Trace.t ->
  ?label:('a -> string) ->
  (Telemetry.Budget.t -> 'a -> 'b) ->
  'a list ->
  'b outcome list * stats

(** The supervisor: resident worker domains, respawn on death, per-task
    deadlines with cooperative cancel then abandon at 2x, deterministic
    retries and chaos, for tasks that arrive one at a time.  It is not a
    loop: {!Service.tick} is one non-blocking pass, driven from the
    caller's own event loop (the daemon's select loop) or to completion
    by {!supervise}.

    Resident workers keep their domain-local decode caches warm across
    tasks, which is the daemon's cross-request cache sharing. *)
module Service : sig
  type t

  (** A submitted task's future outcome. *)
  type 'a handle

  (** Spawn [jobs] resident worker domains (default 1).  With [trace],
      attempts are recorded as spans on worker lanes 1..jobs and
      supervisor decisions (retry, death, respawn, deadline
      cancel/abandon) as instants on lane 0 (see {!supervise}). *)
  val create : ?jobs:int -> ?trace:Telemetry.Trace.t -> unit -> t

  (** Queue [f] for execution on a worker domain.  Each attempt gets a
      fresh cancellable budget carrying [deadline]; failures retry up to
      [retries] times (default 0) on the {!backoff} schedule; [chaos]
      draws per-attempt faults from the pure (seed, submission number,
      attempt) hash, submissions numbered from 0 — so a fresh service's
      submission [i] draws {!supervise}'s faults for item [i].  [label]
      names the task in traces (default ["req-N"]).
      @raise Invalid_argument after {!shutdown}. *)
  val submit :
    t ->
    ?deadline:float ->
    ?retries:int ->
    ?chaos:chaos ->
    ?label:string ->
    (Telemetry.Budget.t -> 'a) ->
    'a handle

  (** The task's outcome, once every attempt has resolved. *)
  val poll : t -> 'a handle -> 'a outcome option

  (** One supervisor pass: deliver completed attempts, detect and respawn
      dead workers, enforce deadlines, release due retries.  Non-blocking;
      call it every few milliseconds. *)
  val tick : t -> unit

  (** Tasks submitted but not yet finalized (queued or running). *)
  val in_flight : t -> int

  (** Tasks submitted over the service's lifetime. *)
  val submitted : t -> int

  (** Worker slots currently leased to a running attempt ([S_busy]) —
      how much of the resident pool is occupied right now.  Bounded by
      the pool's [jobs]; [in_flight] additionally counts queued and
      backoff-delayed tasks. *)
  val lease_depth : t -> int

  val stats : t -> stats

  (** Bounded join: stop the workers and wait at most [deadline] seconds
      (default 2).  [true] when every worker joined — a worker wedged in
      non-cooperative code is left behind and reported as [false] rather
      than wedging the caller. *)
  val shutdown : ?deadline:float -> t -> bool
end
