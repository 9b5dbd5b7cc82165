(** Instruction-cache simulation (paper §5.3): configurations and the
    one-pass {!Bank} that simulates many of them over one fetch stream.

    Parameters follow the paper exactly: direct-mapped, 16-byte lines,
    sizes 1/2/4/8 KiB; a hit costs 1 time unit and a miss 10; fetch cost is
    [hits * 1 + misses * 10]; with context switching enabled the entire
    cache is invalidated every 10,000 time units (values from Smith's cache
    studies, as in the paper).

    An instruction fetch touches the line containing its first byte and,
    when it straddles a line boundary (variable-length CISC instructions),
    the following line too. *)

type config = {
  size_bytes : int;  (** total capacity; must be a multiple of [line_bytes] *)
  line_bytes : int;  (** 16 in the paper *)
  context_switches : bool;  (** invalidate every 10,000 time units *)
  assoc : int;
      (** associativity (LRU within a set); the paper's caches are
          direct-mapped, i.e. [assoc = 1] *)
}

(** The paper's eight configurations: 1/2/4/8 KiB × context switches
    on/off, 16-byte lines, direct-mapped. *)
val paper_configs : config list

val config_name : config -> string

(** Many configurations fed by one fetch stream in a single pass.

    State lives in flat int arrays shared across configurations, and an
    access allocates nothing.  Statistics per configuration are equal to
    feeding the same stream through a dedicated single-cache simulator —
    a property the test suite checks against random streams, with the
    reference simulator as the oracle.

    When every configuration is direct-mapped with one power-of-two line
    size (the paper's eight), the bank keeps only misses plus one shared
    probe count, probes the caches without context switches smallest
    first (a direct-mapped cache holds every line a smaller one of the
    same line size holds), and answers "hit in every configuration" with
    one tag compare when the smallest configuration switches no
    contexts.  A fetch that stays in cached lines then costs a few
    loads, whether or not it changes line.  Other banks probe each
    configuration per line. *)
module Bank : sig
  type t

  val create : config list -> t
  val reset : t -> unit
  val access : t -> addr:int -> size:int -> unit

  (** [Some s] when every configuration is direct-mapped with lines of
      [1 lsl s] bytes and a power-of-two set count: the banks that take
      {!access_run}. *)
  val line_shift : t -> int option

  (** [access_run t ~line ~count] is [count] fetches that each lie
      within line [line] (an address shifted right by the bank's
      {!line_shift}): the same statistics as those [count] calls of
      {!access}, for the price of about one.
      @raise Invalid_argument on a bank without a {!line_shift}. *)
  val access_run : t -> line:int -> count:int -> unit

  (** Configurations in creation order; the [int] arguments below index
      this array. *)
  val configs : t -> config array

  val hits : t -> int -> int
  val misses : t -> int -> int
  val accesses : t -> int -> int
  val miss_ratio : t -> int -> float
  val fetch_cost : t -> int -> int
end
