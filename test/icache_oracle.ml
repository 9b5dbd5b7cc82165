(* The per-cache reference simulator that [Icache.Bank] is checked
   against: one configuration, written for clarity rather than speed —
   a straight scan of the set's ways with LRU timestamps, and the
   context-switch flush checked before every line.  The unit tests pin
   its behaviour; the Bank properties in test_icache.ml hold the bank's
   statistics equal to one of these per configuration. *)

type t = {
  config : Icache.config;
  num_sets : int;
  tags : int array;  (* [set * assoc + way]; -1 = invalid *)
  stamps : int array;  (* LRU timestamps, parallel to [tags] *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable time : int;  (* accumulated fetch cost *)
  mutable next_flush : int;  (* time of the next context switch *)
}

(* The paper's section 5.3 parameters. *)
let hit_cost = 1
let miss_cost = 10
let flush_interval = 10_000

let create (config : Icache.config) =
  let num_lines = config.size_bytes / config.line_bytes in
  {
    config;
    num_sets = num_lines / config.assoc;
    tags = Array.make num_lines (-1);
    stamps = Array.make num_lines 0;
    tick = 0;
    hits = 0;
    misses = 0;
    time = 0;
    next_flush = flush_interval;
  }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.time <- 0;
  t.next_flush <- flush_interval

let access_line t line =
  if t.config.context_switches && t.time >= t.next_flush then begin
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    (* Catch up in whole intervals in case a long gap accumulated. *)
    while t.next_flush <= t.time do
      t.next_flush <- t.next_flush + flush_interval
    done
  end;
  let assoc = t.config.assoc in
  let base = line mod t.num_sets * assoc in
  t.tick <- t.tick + 1;
  (* Look for a hit; remember the least recently used way for replacement. *)
  let rec find way lru =
    if way = assoc then `Evict lru
    else if t.tags.(base + way) = line then `Hit way
    else begin
      let lru =
        if t.tags.(base + way) = -1 then way (* free way wins outright *)
        else if t.tags.(base + lru) <> -1
                && t.stamps.(base + way) < t.stamps.(base + lru)
        then way
        else lru
      in
      find (way + 1) lru
    end
  in
  match find 0 0 with
  | `Hit way ->
    t.stamps.(base + way) <- t.tick;
    t.hits <- t.hits + 1;
    t.time <- t.time + hit_cost
  | `Evict way ->
    t.tags.(base + way) <- line;
    t.stamps.(base + way) <- t.tick;
    t.misses <- t.misses + 1;
    t.time <- t.time + miss_cost

(* A fetch touches the line of its first byte and, when it straddles a
   boundary, the following lines too. *)
let access t ~addr ~size =
  let first = addr / t.config.line_bytes in
  let last = (addr + max 1 size - 1) / t.config.line_bytes in
  for line = first to last do
    access_line t line
  done

let hits t = t.hits
let misses t = t.misses
let accesses t = t.hits + t.misses

let miss_ratio t =
  let n = accesses t in
  if n = 0 then 0.0 else float_of_int t.misses /. float_of_int n

let fetch_cost t = (t.hits * hit_cost) + (t.misses * miss_cost)
