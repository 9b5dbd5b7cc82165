(* A supervised fixed-size Domain worker pool.

   Each work item runs as a sequence of *attempts* under a fresh
   cancellable Budget.  [Service] is the supervisor: resident worker
   domains run the attempts while whoever drives its [tick] delivers
   results, detects dead workers (and respawns them), enforces the
   per-task deadline (cooperative cancellation through the budget, then
   abandon-and-reschedule after a 2x grace period), and feeds retries back
   into the queue on a deterministic capped-exponential backoff.
   [supervise] is a batch over it: inline on the calling domain for one
   job, else a fresh [Service] ticked every millisecond until the last
   item lands.

   Determinism: the schedule is whichever domain gets there first, but
   results land in input order and fault injection is a pure function of
   (seed, task index, attempt) — so the outcome of every task that
   completes is identical to what a sequential run produces, no matter
   the job count. *)

module Budget = Telemetry.Budget

let warn fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "jumprepc: warning: %s\n%!" s) fmt

let clamp_jobs ?(what = "JUMPREP_JOBS") n =
  let cap = Domain.recommended_domain_count () in
  if n < 1 then begin
    warn "%s=%d is not a positive integer; using 1" what n;
    1
  end
  else if n > 4 * cap then begin
    warn "%s=%d exceeds 4x the %d recommended domain%s; using %d" what n cap
      (if cap = 1 then "" else "s")
      cap;
    cap
  end
  else n

let parse_jobs ?(what = "JUMPREP_JOBS") s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> clamp_jobs ~what n
  | Some _ | None ->
    warn "%s=%S is not a positive integer; using 1" what s;
    1

let default_jobs () =
  match Sys.getenv_opt "JUMPREP_JOBS" with
  | None -> 1
  | Some s -> parse_jobs s

(* --- task outcomes and supervisor statistics --- *)

type 'a outcome =
  | Done of 'a
  | Crashed of { exn : exn; backtrace : string; attempts : int }
  | Timed_out of { elapsed : float; attempts : int }

let outcome_kind = function
  | Done _ -> "done"
  | Crashed _ -> "crashed"
  | Timed_out _ -> "timed-out"

type stats = {
  injected_crashes : int;
  injected_hangs : int;
  injected_allocs : int;
  retried : int;
  respawned : int;
  abandoned : int;
}

let no_stats =
  {
    injected_crashes = 0;
    injected_hangs = 0;
    injected_allocs = 0;
    retried = 0;
    respawned = 0;
    abandoned = 0;
  }

let injected s = s.injected_crashes + s.injected_hangs + s.injected_allocs

(* Publish the supervisor tallies as pool.* counters.  The typed registry
   is the one place sweep-level observability reads them from; the record
   stays as the programmatic API. *)
let stats_to_metrics s metrics =
  let m = Telemetry.Metrics.add metrics in
  m "pool.injected_crashes" s.injected_crashes;
  m "pool.injected_hangs" s.injected_hangs;
  m "pool.injected_allocs" s.injected_allocs;
  m "pool.retried" s.retried;
  m "pool.respawned" s.respawned;
  m "pool.abandoned" s.abandoned

(* --- deterministic backoff --- *)

let backoff ?(base = 0.05) ?(cap = 0.8) attempt =
  min cap (base *. (2. ** float_of_int (max 0 (attempt - 1))))

(* --- deterministic chaos injection --- *)

type chaos = { crash : float; hang : float; alloc : float; chaos_seed : int }

exception Chaos_crash

(* splitmix-flavored integer scramble.  32-bit multiplier constants on a
   30-bit state: the usual 64-bit constants overflow OCaml's 63-bit
   native ints.  Pure in (seed, task, attempt), so sequential and
   parallel runs inject the identical fault schedule. *)
let mix seed task attempt =
  let mask = (1 lsl 30) - 1 in
  let golden = 0x9E3779B1 in
  let scramble h =
    let h = (h lxor (h lsr 15)) * 0x85EBCA6B land mask in
    let h = (h lxor (h lsr 13)) * 0xC2B2AE35 land mask in
    h lxor (h lsr 16)
  in
  let h = scramble ((seed land mask) + golden) in
  let h = scramble (h lxor ((task + 1) * golden land mask)) in
  scramble (h lxor ((attempt + 1) * golden land mask))

let chaos_fault c ~task ~attempt =
  let u = float_of_int (mix c.chaos_seed task attempt land 0xFFFFFF) /. 16777216. in
  if u < c.crash then Some `Crash
  else if u < c.crash +. c.hang then Some `Hang
  else if u < c.crash +. c.hang +. c.alloc then Some `Alloc
  else None

let chaos_of_string s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rate kind v =
    match float_of_string_opt v with
    | Some r when r >= 0. && r <= 1. -> Ok r
    | Some _ | None ->
      Error (Printf.sprintf "bad %s rate %S (want a probability in 0..1)" kind v)
  in
  let rec go c = function
    | [] ->
      if c.crash +. c.hang +. c.alloc > 0. then Ok c
      else Error "chaos spec enables no fault kind"
    | p :: rest -> (
      let kind, value =
        match String.index_opt p ':' with
        | None -> (p, None)
        | Some i ->
          ( String.sub p 0 i,
            Some (String.sub p (i + 1) (String.length p - i - 1)) )
      in
      let with_rate set = function
        | None -> go (set 0.1) rest
        | Some v -> (
          match rate kind v with Ok r -> go (set r) rest | Error e -> Error e)
      in
      match kind with
      | "crash" -> with_rate (fun r -> { c with crash = r }) value
      | "hang" -> with_rate (fun r -> { c with hang = r }) value
      | "alloc" -> with_rate (fun r -> { c with alloc = r }) value
      | "seed" -> (
        match Option.bind value int_of_string_opt with
        | Some n -> go { c with chaos_seed = n } rest
        | None -> Error (Printf.sprintf "bad chaos seed in %S (want seed:N)" p))
      | _ ->
        Error
          (Printf.sprintf
             "unknown chaos component %S (want crash|hang|alloc[:RATE] or \
              seed:N)"
             p))
  in
  go { crash = 0.; hang = 0.; alloc = 0.; chaos_seed = 1 } parts

(* --- one attempt --- *)

(* How one attempt failed: a raised exception, or a deadline/cancellation
   (the only two final outcomes besides success). *)
type failure = F_crash of exn * string | F_timeout of float

let outcome_of_failure fl attempts =
  match fl with
  | F_crash (exn, backtrace) -> Crashed { exn; backtrace; attempts }
  | F_timeout elapsed -> Timed_out { elapsed; attempts }

(* Chaos tallies, bumped by whichever domain runs the attempt. *)
type injections = {
  crashes : int Atomic.t;
  hangs : int Atomic.t;
  allocs : int Atomic.t;
}

let new_injections () =
  { crashes = Atomic.make 0; hangs = Atomic.make 0; allocs = Atomic.make 0 }

let injected_stats inj =
  {
    no_stats with
    injected_crashes = Atomic.get inj.crashes;
    injected_hangs = Atomic.get inj.hangs;
    injected_allocs = Atomic.get inj.allocs;
  }

(* Injected hangs spin until released, interrupted, or this cap — they
   must never outlive the supervisor's bounded shutdown. *)
let hang_cap = function Some d -> 4. *. d | None -> 2.0

(* ~64MB of short-lived garbage: memory pressure that must not change
   the task's result. *)
let alloc_storm () =
  for _ = 1 to 64 do
    ignore (Sys.opaque_identity (Bytes.create (1 lsl 20)))
  done

let name_lanes trace jobs =
  Option.iter
    (fun t ->
      Telemetry.Trace.thread_name t ~tid:0 "supervisor";
      for k = 1 to jobs do
        Telemetry.Trace.thread_name t ~tid:k (Printf.sprintf "worker-%d" k)
      done)
    trace

let retry_instant trace label attempt =
  Option.iter
    (fun t ->
      Telemetry.Trace.instant t ~tid:0
        ~args:
          [
            ("task", Telemetry.Json.Str label);
            ("attempt", Telemetry.Json.Int attempt);
          ]
        "task-retry")
    trace

(* One attempt of a task: draw its chaos fault from the pure (seed, [seq],
   attempt) schedule, tally and trace the fault, run [f] under [budget]
   and classify how it ended.  The inline path and the service's worker
   domains differ only in what an injected fault does to the running
   domain, so they pass it in: [crash] yields the attempt's result (or
   raises to kill a worker), [hang] returns the seconds the hang took. *)
let try_attempt inj ~trace ~tid ~label ~chaos ~seq ~attempt ~started ~crash
    ~hang f budget =
  let chaos_instant kind =
    Option.iter
      (fun t ->
        Telemetry.Trace.instant t ~tid ~cat:"chaos"
          (Printf.sprintf "chaos-%s" kind))
      trace
  in
  let body () =
    match Option.bind chaos (fun c -> chaos_fault c ~task:seq ~attempt) with
    | Some `Crash ->
      Atomic.incr inj.crashes;
      chaos_instant "crash";
      crash ()
    | Some `Hang ->
      Atomic.incr inj.hangs;
      chaos_instant "hang";
      Error (F_timeout (hang ()))
    | (Some `Alloc | None) as fault -> (
      if fault <> None then begin
        Atomic.incr inj.allocs;
        chaos_instant "alloc";
        alloc_storm ()
      end;
      match f budget with
      | v -> Ok v
      | exception Budget.Exhausted _ ->
        Error (F_timeout (Unix.gettimeofday () -. started))
      | exception e -> Error (F_crash (e, Printexc.get_backtrace ())))
  in
  match trace with
  | None -> body ()
  | Some t ->
    Telemetry.Trace.with_span t ~tid ~cat:"task"
      ~args:[ ("attempt", Telemetry.Json.Int attempt) ]
      label body

(* --- the supervisor --- *)

(* [Service] is the one multi-domain supervisor: [submit] hands a task to
   resident worker domains, [tick] is one non-blocking supervisor pass
   (deliver failed attempts, detect dead workers and respawn them,
   enforce deadlines, release due retries), [poll] reads a task's
   structured outcome, [shutdown] is the bounded join.  The daemon drives
   [tick] from its select loop; [supervise] below drives it to completion
   over a batch.

   Every handle write happens under the service mutex; a task function
   runs on a worker domain and stores its own [Done] result, while
   retries, deadline abandonment and failure finalization belong to the
   tick.  Resident workers also keep their domain-local decode caches
   warm across requests — the space-for-latency trade the daemon
   serves. *)
module Service = struct
  type task = {
    t_seq : int;
    t_label : string;
    t_fn : Budget.t -> unit;  (* runs the user fn; stores Done itself *)
    t_fail : failure -> int -> unit;  (* finalize; caller holds [mu] *)
    t_finalized : unit -> bool;  (* caller holds [mu] *)
    t_deadline : float option;
    t_retries : int;
    t_chaos : chaos option;
    mutable t_latest : int;  (* newest scheduled attempt number *)
  }

  type trunning = {
    q_task : task;
    q_attempt : int;
    q_start : float;
    q_budget : Budget.t;
  }

  (* One worker slot's state, written under [mu] by the worker itself
     (busy/idle/exited/died transitions), never by the supervisor. *)
  type sstate =
    | S_idle
    | S_busy of trunning
    | S_exited
    | S_died of trunning option * exn * string

  (* [s_retire] tells a worker abandoned by the watchdog not to take more
     work if it ever returns from its stuck attempt.  [s_tid] is the
     slot's stable trace lane: a respawned replacement inherits the dead
     worker's lane, so a trace shows one timeline per logical worker. *)
  type sslot = {
    mutable s_st : sstate;
    mutable s_dom : unit Domain.t option;
    mutable s_retire : bool;
    s_tid : int;
  }

  type t = {
    mu : Mutex.t;
    cond : Condition.t;
    jobs : int;
    pending : (task * int) Queue.t;
    reports : (task * int * (unit, failure) result) Queue.t;
    mutable delayed : (float * task * int) list;
    mutable slots : sslot list;
    mutable zombies : sslot list;
    mutable free_tids : int list;
    mutable quit : bool;
    release : bool Atomic.t;
    mutable in_flight : int;
    mutable submitted : int;
    trace : Telemetry.Trace.t option;
    inj : injections;
    mutable s_retried : int;
    mutable s_respawned : int;
    mutable s_abandoned : int;
  }

  type 'a handle = { mutable h_out : 'a outcome option }

  let tr svc g = match svc.trace with Some t -> g t | None -> ()

  (* One attempt on a worker domain.  An injected crash unwinds the whole
     worker function: the domain dies, which is exactly the failure the
     supervisor's death detection and respawn exist for.  An injected
     hang is a busy-wait that still polls (cpu_relax keeps the domain a
     GC-friendly citizen) and honors cooperative cancellation. *)
  let run_attempt svc slot task attempt =
    let budget = Budget.make ?deadline:task.t_deadline () in
    let started = Unix.gettimeofday () in
    Mutex.lock svc.mu;
    slot.s_st <-
      S_busy { q_task = task; q_attempt = attempt; q_start = started; q_budget = budget };
    Mutex.unlock svc.mu;
    let cap = hang_cap task.t_deadline in
    let res =
      try_attempt svc.inj ~trace:svc.trace ~tid:slot.s_tid ~label:task.t_label
        ~chaos:task.t_chaos ~seq:task.t_seq ~attempt ~started
        ~crash:(fun () -> raise Chaos_crash)
        ~hang:(fun () ->
          while
            (not (Atomic.get svc.release))
            && (not (Budget.interrupted budget))
            && Unix.gettimeofday () -. started < cap
          do
            Domain.cpu_relax ()
          done;
          Unix.gettimeofday () -. started)
        task.t_fn budget
    in
    Mutex.lock svc.mu;
    slot.s_st <- S_idle;
    Queue.push (task, attempt, res) svc.reports;
    Mutex.unlock svc.mu

  let rec worker_loop svc slot =
    Mutex.lock svc.mu;
    let rec next () =
      if svc.quit || slot.s_retire then None
      else if Queue.is_empty svc.pending then begin
        Condition.wait svc.cond svc.mu;
        next ()
      end
      else Some (Queue.pop svc.pending)
    in
    let job = next () in
    Mutex.unlock svc.mu;
    match job with
    | None -> ()
    | Some (task, attempt) ->
      run_attempt svc slot task attempt;
      worker_loop svc slot

  let worker svc slot () =
    match worker_loop svc slot with
    | () ->
      Mutex.lock svc.mu;
      slot.s_st <- S_exited;
      Mutex.unlock svc.mu
    | exception e ->
      let bt = Printexc.get_backtrace () in
      Mutex.lock svc.mu;
      let running = match slot.s_st with S_busy r -> Some r | _ -> None in
      slot.s_st <- S_died (running, e, bt);
      Mutex.unlock svc.mu

  let spawn_slot svc tid =
    let slot = { s_st = S_idle; s_dom = None; s_retire = false; s_tid = tid } in
    slot.s_dom <- Some (Domain.spawn (worker svc slot));
    slot

  let create ?(jobs = 1) ?trace () =
    let jobs = max 1 jobs in
    let svc =
      {
        mu = Mutex.create ();
        cond = Condition.create ();
        jobs;
        pending = Queue.create ();
        reports = Queue.create ();
        delayed = [];
        slots = [];
        zombies = [];
        free_tids = [];
        quit = false;
        release = Atomic.make false;
        in_flight = 0;
        submitted = 0;
        trace;
        inj = new_injections ();
        s_retried = 0;
        s_respawned = 0;
        s_abandoned = 0;
      }
    in
    name_lanes trace jobs;
    svc.slots <- List.init jobs (fun k -> spawn_slot svc (k + 1));
    svc

  let stats svc =
    {
      (injected_stats svc.inj) with
      retried = svc.s_retried;
      respawned = svc.s_respawned;
      abandoned = svc.s_abandoned;
    }

  let in_flight svc =
    Mutex.lock svc.mu;
    let n = svc.in_flight in
    Mutex.unlock svc.mu;
    n

  let submitted svc =
    Mutex.lock svc.mu;
    let n = svc.submitted in
    Mutex.unlock svc.mu;
    n

  let lease_depth svc =
    Mutex.lock svc.mu;
    let n =
      List.fold_left
        (fun acc s -> match s.s_st with S_busy _ -> acc + 1 | _ -> acc)
        0 svc.slots
    in
    Mutex.unlock svc.mu;
    n

  let submit svc ?deadline ?(retries = 0) ?chaos ?label f =
    let h = { h_out = None } in
    Mutex.lock svc.mu;
    if svc.quit then begin
      Mutex.unlock svc.mu;
      invalid_arg "Pool.Service.submit: service is shut down"
    end;
    (* Submissions number from 0, so a fresh service's submission [i] is
       [supervise]'s item [i] and draws the inline path's chaos faults. *)
    let seq = svc.submitted in
    svc.submitted <- seq + 1;
    svc.in_flight <- svc.in_flight + 1;
    (* Finalization is once-only: a stale attempt completing after an
       abandonment (or after the retry that superseded it) finds the
       handle already written and leaves it alone — the task function is
       deterministic, so whichever attempt lands first defines the
       outcome. *)
    let finalize o =
      if h.h_out = None then begin
        h.h_out <- Some o;
        svc.in_flight <- svc.in_flight - 1
      end
    in
    let task =
      {
        t_seq = seq;
        t_label =
          (match label with Some l -> l | None -> Printf.sprintf "req-%d" seq);
        t_fn =
          (fun budget ->
            let v = f budget in
            Mutex.lock svc.mu;
            finalize (Done v);
            Mutex.unlock svc.mu);
        t_fail = (fun fl attempts -> finalize (outcome_of_failure fl attempts));
        t_finalized = (fun () -> h.h_out <> None);
        t_deadline = deadline;
        t_retries = retries;
        t_chaos = chaos;
        t_latest = 1;
      }
    in
    Queue.push (task, 1) svc.pending;
    Condition.broadcast svc.cond;
    Mutex.unlock svc.mu;
    h

  let poll svc h =
    Mutex.lock svc.mu;
    let o = h.h_out in
    Mutex.unlock svc.mu;
    o

  (* Retry/finalize bookkeeping for a failed attempt; caller holds [mu].
     Failures of superseded attempts are ignored: the newer attempt owns
     the task's fate. *)
  let handle_failure svc now task attempt fl =
    if (not (task.t_finalized ())) && attempt >= task.t_latest then begin
      if attempt <= task.t_retries then begin
        svc.s_retried <- svc.s_retried + 1;
        retry_instant svc.trace task.t_label attempt;
        task.t_latest <- attempt + 1;
        svc.delayed <- (now +. backoff attempt, task, attempt + 1) :: svc.delayed
      end
      else task.t_fail fl attempt
    end

  (* One supervisor pass: deliver reports, detect dead workers, enforce
     deadlines, release due retries, respawn.  Returns the tasks still in
     flight, read under the pass's own lock. *)
  let step svc =
    let to_join = ref [] in
    Mutex.lock svc.mu;
    let now = Unix.gettimeofday () in
    while not (Queue.is_empty svc.reports) do
      let task, attempt, res = Queue.pop svc.reports in
      match res with
      | Ok () -> ()  (* the task function already stored its Done *)
      | Error fl -> handle_failure svc now task attempt fl
    done;
    let keep =
      List.filter
        (fun slot ->
          match slot.s_st with
          | S_died (running, exn, bt) ->
            tr svc (fun t ->
                Telemetry.Trace.instant t ~tid:0
                  ~args:[ ("worker", Telemetry.Json.Int slot.s_tid) ]
                  "worker-died");
            Option.iter
              (fun r ->
                handle_failure svc now r.q_task r.q_attempt (F_crash (exn, bt)))
              running;
            Option.iter (fun d -> to_join := d :: !to_join) slot.s_dom;
            svc.free_tids <- slot.s_tid :: svc.free_tids;
            false
          | S_busy r -> (
            match r.q_task.t_deadline with
            | Some d when now -. r.q_start > 2. *. d ->
              (* Past the cooperative-cancellation grace period: the
                 attempt is not responding.  Abandon the worker (it is
                 told to retire if it ever comes back) and give the task
                 a fresh domain. *)
              svc.s_abandoned <- svc.s_abandoned + 1;
              tr svc (fun t ->
                  Telemetry.Trace.instant t ~tid:0
                    ~args:
                      [
                        ("worker", Telemetry.Json.Int slot.s_tid);
                        ("task", Telemetry.Json.Str r.q_task.t_label);
                      ]
                    "deadline-abandon");
              Budget.cancel r.q_budget;
              handle_failure svc now r.q_task r.q_attempt
                (F_timeout (now -. r.q_start));
              slot.s_retire <- true;
              svc.zombies <- slot :: svc.zombies;
              svc.free_tids <- slot.s_tid :: svc.free_tids;
              false
            | Some d when now -. r.q_start > d ->
              if not (Budget.interrupted r.q_budget) then
                tr svc (fun t ->
                    Telemetry.Trace.instant t ~tid:0
                      ~args:
                        [
                          ("worker", Telemetry.Json.Int slot.s_tid);
                          ("task", Telemetry.Json.Str r.q_task.t_label);
                        ]
                      "deadline-cancel");
              Budget.cancel r.q_budget;
              true
            | _ -> true)
          | S_idle | S_exited -> true)
        svc.slots
    in
    svc.slots <- keep;
    let ready, not_ready =
      List.partition (fun (t, _, _) -> t <= now) svc.delayed
    in
    svc.delayed <- not_ready;
    List.iter
      (fun (_, task, attempt) -> Queue.push (task, attempt) svc.pending)
      ready;
    if not (Queue.is_empty svc.pending) then Condition.broadcast svc.cond;
    let live = List.length svc.slots in
    let quit = svc.quit in
    let in_flight = svc.in_flight in
    Mutex.unlock svc.mu;
    List.iter Domain.join !to_join;
    if not quit then
      for _ = 1 to svc.jobs - live do
        Mutex.lock svc.mu;
        svc.s_respawned <- svc.s_respawned + 1;
        let tid =
          match svc.free_tids with
          | t :: rest ->
            svc.free_tids <- rest;
            t
          | [] -> svc.jobs + svc.s_respawned
        in
        tr svc (fun t ->
            Telemetry.Trace.instant t ~tid:0
              ~args:[ ("worker", Telemetry.Json.Int tid) ]
              "worker-respawn");
        let slot = spawn_slot svc tid in
        svc.slots <- slot :: svc.slots;
        Mutex.unlock svc.mu
      done;
    in_flight

  let tick svc = ignore (step svc)

  (* Bounded shutdown: wake everyone, cancel whatever is still running,
     then wait at most [deadline] seconds — a worker wedged in
     non-cooperative code cannot be killed, so it is left behind rather
     than wedging the caller.  Returns [true] when every worker joined
     (no stragglers). *)
  let shutdown ?(deadline = 2.0) svc =
    Mutex.lock svc.mu;
    svc.quit <- true;
    Atomic.set svc.release true;
    List.iter
      (fun s ->
        match s.s_st with S_busy r -> Budget.cancel r.q_budget | _ -> ())
      (svc.slots @ svc.zombies);
    Condition.broadcast svc.cond;
    let all = svc.slots @ svc.zombies in
    Mutex.unlock svc.mu;
    let finished s =
      Mutex.lock svc.mu;
      let r =
        match s.s_st with
        | S_exited | S_died _ -> true
        | S_idle | S_busy _ -> false
      in
      Mutex.unlock svc.mu;
      r
    in
    let give_up = Unix.gettimeofday () +. Float.max 0.1 deadline in
    let rec drain waiting =
      let still = List.filter (fun s -> not (finished s)) waiting in
      if still = [] || Unix.gettimeofday () > give_up then still
      else begin
        Unix.sleepf 0.001;
        drain still
      end
    in
    let stragglers = drain all in
    List.iter
      (fun s ->
        if not (List.memq s stragglers) then Option.iter Domain.join s.s_dom)
      all;
    stragglers = []
end

(* A batch of work items: inline on the calling domain for one job, else
   a fresh [Service] driven to completion. *)
let supervise ?(jobs = 1) ?deadline ?(retries = 2) ?chaos ?trace ?label f xs =
  let items = Array.of_list xs in
  let jobs = max 1 (min jobs (Array.length items)) in
  let task_label =
    match label with
    | Some l -> fun i -> l items.(i)
    | None -> fun i -> Printf.sprintf "task-%d" i
  in
  if jobs = 1 then begin
    (* Inline path: the service's attempt/fault/backoff schedule, no
       domains.  An injected crash is charged as a crashed attempt and an
       injected hang as a timed-out one without actually spinning —
       nothing else could make progress meanwhile. *)
    name_lanes trace 1;
    let inj = new_injections () in
    let retried = ref 0 in
    let run_task i x =
      let rec go attempt =
        let budget = Budget.make ?deadline () in
        let res =
          try_attempt inj ~trace ~tid:1 ~label:(task_label i) ~chaos ~seq:i
            ~attempt ~started:(Unix.gettimeofday ())
            ~crash:(fun () -> Error (F_crash (Chaos_crash, "")))
            ~hang:(fun () -> Option.value deadline ~default:0.)
            (fun b -> f b x)
            budget
        in
        match res with
        | Ok v -> Done v
        | Error _ when attempt <= retries ->
          incr retried;
          retry_instant trace (task_label i) attempt;
          Unix.sleepf (backoff attempt);
          go (attempt + 1)
        | Error fl -> outcome_of_failure fl attempt
      in
      go 1
    in
    let results = Array.mapi run_task items in
    (Array.to_list results, { (injected_stats inj) with retried = !retried })
  end
  else begin
    let svc = Service.create ~jobs ?trace () in
    let handles =
      Array.mapi
        (fun i x ->
          Service.submit svc ?deadline ~retries ?chaos ~label:(task_label i)
            (fun budget -> f budget x))
        items
    in
    while Service.step svc > 0 do
      Unix.sleepf 0.001
    done;
    ignore (Service.shutdown ~deadline:(Float.max 1.0 (hang_cap deadline)) svc);
    let outcome h = Option.get (Service.poll svc h) in
    (Array.to_list (Array.map outcome handles), Service.stats svc)
  end
