(** jumprepd: the compilation-as-a-service daemon behind
    [jumprepc serve].

    A single select loop owns the Unix-domain listening socket and every
    client connection; compute runs on the resident worker domains of a
    {!Harness.Pool.Service} whose supervisor pass the loop drives.
    Admission is bounded ([queue_cap], explicit [overloaded] rejections),
    execution is crash-isolated with per-request deadlines/retries/chaos,
    and SIGTERM (or a [drain] request) triggers a graceful,
    deadline-bounded drain.  See DESIGN.md "Daemon wire protocol". *)

type config = {
  socket_path : string;  (** Unix-domain socket path (unlinked on exit) *)
  jobs : int;  (** resident worker domains *)
  queue_cap : int;  (** max requests in flight before [overloaded] *)
  drain_deadline : float;  (** seconds to finish in-flight work on drain *)
  idle_timeout : float;  (** close idle / half-open connections after this *)
  default_deadline : float option;
      (** per-request deadline when the qos omits one *)
  fuzz_out : string;  (** reproducer directory for [fuzz] requests *)
  trace : Telemetry.Trace.t option;
      (** record worker/supervisor lanes into this trace *)
  quiet : bool;  (** suppress lifecycle lines on stderr *)
}

(** jobs 1, queue cap 64, drain deadline 10s, idle timeout 30s, no
    default deadline, no trace. *)
val default_config : string -> config

type drain_result = {
  clean : bool;
      (** every in-flight request finished inside the drain deadline and
          every worker joined *)
  force_stopped : int;  (** requests abandoned at the drain deadline *)
}

(** Run the daemon until drained.  Binds and listens on
    [config.socket_path] — a stale socket file (nobody answers) is
    replaced, but if a daemon is already serving on it the call raises
    [Telemetry.Diag.Error] with an [io-error] diagnostic instead of
    stealing the endpoint.  Prints one
    [jumprepd: listening on ...] readiness line on stdout, serves until
    SIGTERM/SIGINT or a [drain] request, then drains and reports.
    Installs its own SIGTERM/SIGINT handlers (restored on exit) and
    ignores SIGPIPE. *)
val serve : config -> drain_result
