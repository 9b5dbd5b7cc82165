type config = {
  size_bytes : int;
  line_bytes : int;
  context_switches : bool;
  assoc : int;
}

let hit_cost = 1
let miss_cost = 10
let flush_interval = 10_000

let paper_configs =
  List.concat_map
    (fun kb ->
      List.map
        (fun cs ->
          {
            size_bytes = kb * 1024;
            line_bytes = 16;
            context_switches = cs;
            assoc = 1;
          })
        [ true; false ])
    [ 1; 2; 4; 8 ]

let config_name c =
  Printf.sprintf "%dKb/%s/ctx-%s" (c.size_bytes / 1024)
    (if c.assoc = 1 then "direct" else Printf.sprintf "%d-way" c.assoc)
    (if c.context_switches then "on" else "off")

(* A bank feeds one fetch stream to many configurations in a single pass.
   Per-cache state lives in flat int arrays indexed by a per-config
   offset, so an access allocates nothing.  The update rules are those
   of a straightforward one-cache-per-config simulator (the test suite's
   oracle), quirks included (the per-line flush check, tick-then-scan
   ordering, and the last-free-way-wins LRU choice), so a bank's
   statistics are equal to running each config separately.

   Banks whose configs are all direct-mapped with one power-of-two line
   size (every paper sweep) take the uniform path, which keeps only
   misses:

   - Every line access probes every config, so one shared [probes]
     count is each config's access count: hits = probes - misses, and
     with [hit_cost = 1] a config's time is probes + 9 * misses.
   - Direct-mapped caches with one line size and power-of-two set
     counts obey inclusion (Mattson et al., 1970): a line resident in a
     cache is resident in every larger one fed the same stream.  So the
     ctx-off configs are probed smallest first and the probe stops at
     the first hit.
   - A ctx-on config's flush comes due at a fixed probe count until it
     next misses; [flush_due] is the least of those, so one compare
     per access stands in for the per-config flush checks.
   - "Hit in every config" is one tag compare.  The line hits in the
     smallest ctx-off cache, so in every cache at least as large; and
     when it was last probed no earlier than the latest ctx-on flush,
     every ctx-on cache has held it since.  That needs the smallest
     config to be ctx-off; otherwise every line change probes each
     config. *)
module Bank = struct
  type bank = {
    configs : config array;
    offsets : int array;  (** start of each config's ways in [tags] *)
    lines_per : int array;
    num_sets : int array;
    assocs : int array;
    line_bytes : int array;
    line_shift : int array;  (** log2 of [line_bytes]; -1 if not a power of 2 *)
    set_mask : int array;  (** [num_sets - 1] when a power of 2, else -1 *)
    ctx : bool array;
    uniform_shift : int;
        (** line shift shared by {e all} configs when every one is
            direct-mapped with the same power-of-two line size and a
            power-of-two set count (the paper's eight geometries); -1
            otherwise.  Selects the uniform path. *)
    tags : int array;
    stamps : int array;
        (** general path: LRU timestamps.  Uniform path: for the slice
            of the smallest ctx-off config, the probe count at which the
            slot's line was last probed by a slow access (never later
            than its true last probe, which is all the hit check needs) *)
    ticks : int array;
    bhits : int array;  (** general path only *)
    bmisses : int array;
    times : int array;  (** general path only *)
    next_flush : int array;
    (* Uniform path. *)
    on_idx : int array;  (** ctx-on configs *)
    off_chain : int array;  (** ctx-off configs, smallest first *)
    all_hit_base : int;
        (** [offsets] of the smallest ctx-off config when no config is
            smaller, else -1: no O(1) all-hit check *)
    all_hit_mask : int;
    due : int array;  (** ctx-on config [i] flushes at probe [due.(i)] *)
    mutable probes : int;
    mutable flush_due : int;
        (** probe count of the next flush check: the least [due] over
            ctx-on configs once checked *)
    mutable last_flush : int;  (** probe count at the latest ctx-on flush *)
  }

  type t = bank

  let create config_list =
    let configs = Array.of_list config_list in
    let n = Array.length configs in
    let offsets = Array.make n 0 in
    let lines_per = Array.make n 0 in
    let num_sets = Array.make n 0 in
    let assocs = Array.make n 0 in
    let line_bytes = Array.make n 0 in
    let line_shift = Array.make n (-1) in
    let set_mask = Array.make n (-1) in
    let ctx = Array.make n false in
    let log2_exact x =
      let rec go s = if 1 lsl s = x then s else if 1 lsl s > x then -1 else go (s + 1) in
      if x > 0 then go 0 else -1
    in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let c = configs.(i) in
      if c.size_bytes mod c.line_bytes <> 0 then
        invalid_arg "Icache.Bank.create: size not a multiple of the line size";
      if c.assoc < 1 then invalid_arg "Icache.Bank.create: associativity < 1";
      let lines = c.size_bytes / c.line_bytes in
      if lines mod c.assoc <> 0 then
        invalid_arg
          "Icache.Bank.create: lines not a multiple of the associativity";
      offsets.(i) <- !total;
      lines_per.(i) <- lines;
      num_sets.(i) <- lines / c.assoc;
      assocs.(i) <- c.assoc;
      line_bytes.(i) <- c.line_bytes;
      line_shift.(i) <- log2_exact c.line_bytes;
      set_mask.(i) <-
        (if log2_exact num_sets.(i) >= 0 then num_sets.(i) - 1 else -1);
      ctx.(i) <- c.context_switches;
      total := !total + lines
    done;
    let uniform_shift =
      if
        n > 0
        && line_shift.(0) >= 0
        && Array.for_all (fun s -> s = line_shift.(0)) line_shift
        && Array.for_all (fun a -> a = 1) assocs
        && Array.for_all (fun m -> m >= 0) set_mask
      then line_shift.(0)
      else -1
    in
    let indices p = List.filter p (List.init n Fun.id) in
    let on_idx = Array.of_list (indices (fun i -> ctx.(i))) in
    let off_chain =
      Array.of_list
        (List.stable_sort
           (fun a b -> compare num_sets.(a) num_sets.(b))
           (indices (fun i -> not ctx.(i))))
    in
    (* The smallest ctx-off config can answer "hit everywhere" only when
       no config is smaller. *)
    let all_hit_base, all_hit_mask =
      if
        Array.length off_chain > 0
        && Array.for_all (fun s -> s >= num_sets.(off_chain.(0))) num_sets
      then (offsets.(off_chain.(0)), set_mask.(off_chain.(0)))
      else (-1, 0)
    in
    {
      configs;
      offsets;
      lines_per;
      num_sets;
      assocs;
      line_bytes;
      line_shift;
      set_mask;
      ctx;
      uniform_shift;
      tags = Array.make !total (-1);
      stamps = Array.make !total 0;
      ticks = Array.make n 0;
      bhits = Array.make n 0;
      bmisses = Array.make n 0;
      times = Array.make n 0;
      next_flush = Array.make n flush_interval;
      on_idx;
      off_chain;
      all_hit_base;
      all_hit_mask;
      due = Array.make n flush_interval;
      probes = 0;
      flush_due = flush_interval;
      last_flush = 0;
    }

  let reset t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamps 0 (Array.length t.stamps) 0;
    let n = Array.length t.configs in
    Array.fill t.ticks 0 n 0;
    Array.fill t.bhits 0 n 0;
    Array.fill t.bmisses 0 n 0;
    Array.fill t.times 0 n 0;
    Array.fill t.next_flush 0 n flush_interval;
    Array.fill t.due 0 n flush_interval;
    t.probes <- 0;
    t.flush_due <- flush_interval;
    t.last_flush <- 0

  let extra_miss_cost = miss_cost - hit_cost

  (* Flush every ctx-on config whose time has reached its next switch
     (time = probes + 9 * misses, so config [i] is due at probe
     [next_flush - 9 * misses]), then recompute [flush_due]. *)
  let flush_due_configs t =
    let k = t.probes in
    let flush_due = ref max_int in
    Array.iter
      (fun i ->
        if k >= t.due.(i) then begin
          Array.fill t.tags t.offsets.(i) t.lines_per.(i) (-1);
          let time = k + (extra_miss_cost * t.bmisses.(i)) in
          while t.next_flush.(i) <= time do
            t.next_flush.(i) <- t.next_flush.(i) + flush_interval
          done;
          t.due.(i) <- t.next_flush.(i) - (extra_miss_cost * t.bmisses.(i));
          t.last_flush <- k
        end;
        if t.due.(i) < !flush_due then flush_due := t.due.(i))
      t.on_idx;
    t.flush_due <- !flush_due

  (* One line access probing config by config.  Indices are in range by
     construction: [set_mask.(i)] masks the line into [0, num_sets),
     and [offsets.(i) + set] stays inside config [i]'s slice. *)
  let probe_line t line =
    if t.probes >= t.flush_due then flush_due_configs t;
    let tags = t.tags and offsets = t.offsets and set_mask = t.set_mask in
    let misses = t.bmisses in
    let on_idx = t.on_idx in
    for j = 0 to Array.length on_idx - 1 do
      let i = Array.unsafe_get on_idx j in
      let slot = Array.unsafe_get offsets i + (line land Array.unsafe_get set_mask i) in
      if Array.unsafe_get tags slot <> line then begin
        Array.unsafe_set tags slot line;
        Array.unsafe_set misses i (Array.unsafe_get misses i + 1);
        let d = Array.unsafe_get t.due i - extra_miss_cost in
        Array.unsafe_set t.due i d;
        if d < t.flush_due then t.flush_due <- d
      end
    done;
    let chain = t.off_chain in
    let j = ref 0 in
    while !j < Array.length chain do
      let i = Array.unsafe_get chain !j in
      let slot = Array.unsafe_get offsets i + (line land Array.unsafe_get set_mask i) in
      if Array.unsafe_get tags slot = line then
        (* Inclusion: every larger ctx-off cache hits too. *)
        j := Array.length chain
      else begin
        Array.unsafe_set tags slot line;
        Array.unsafe_set misses i (Array.unsafe_get misses i + 1);
        incr j
      end
    done;
    if t.all_hit_base >= 0 then
      Array.unsafe_set t.stamps (t.all_hit_base + (line land t.all_hit_mask)) t.probes;
    t.probes <- t.probes + 1

  (* The O(1) answer to "would [line] hit in every config, with no flush
     due now?" — false when unsure, never wrongly true. *)
  let hits_everywhere t line =
    let base = t.all_hit_base in
    base >= 0
    && t.probes < t.flush_due
    &&
    let slot = base + (line land t.all_hit_mask) in
    Array.unsafe_get t.tags slot = line
    && Array.unsafe_get t.stamps slot >= t.last_flush

  let access_line t line =
    if hits_everywhere t line then t.probes <- t.probes + 1 else probe_line t line

  (* [count] more accesses to [line], which the last access left
     resident in every config: each hits everywhere unless a flush
     comes due first. *)
  let rec repeat_line t line count =
    if count > 0 then begin
      let room = t.flush_due - t.probes in
      if room >= count then t.probes <- t.probes + count
      else begin
        let room = max room 0 in
        t.probes <- t.probes + room;
        probe_line t line;
        repeat_line t line (count - room - 1)
      end
    end

  let access_run t ~line ~count =
    if t.uniform_shift < 0 then invalid_arg "Icache.Bank.access_run: not a uniform bank";
    if count > 0 then
      if t.probes + count <= t.flush_due && hits_everywhere t line then
        t.probes <- t.probes + count
      else begin
        access_line t line;
        repeat_line t line (count - 1)
      end

  let access_general t ~addr ~span =
    let tags = t.tags and stamps = t.stamps in
    for i = 0 to Array.length t.configs - 1 do
      let off = t.offsets.(i) in
      let assoc = t.assocs.(i) in
      (* Integer division dominates an otherwise branch-and-load-only
         access; the paper's geometries are all powers of two, so the
         common path is shifts and masks. *)
      let sh = t.line_shift.(i) in
      let first, last =
        if sh >= 0 then (addr asr sh, (addr + span) asr sh)
        else
          let lb = t.line_bytes.(i) in
          (addr / lb, (addr + span) / lb)
      in
      for line = first to last do
        if t.ctx.(i) && t.times.(i) >= t.next_flush.(i) then begin
          Array.fill tags off t.lines_per.(i) (-1);
          while t.next_flush.(i) <= t.times.(i) do
            t.next_flush.(i) <- t.next_flush.(i) + flush_interval
          done
        end;
        let mask = t.set_mask.(i) in
        let set = if mask >= 0 then line land mask else line mod t.num_sets.(i) in
        if assoc = 1 then begin
          (* Direct-mapped (every paper config): the scan degenerates to
             one compare, the sole way is its own LRU choice, and the
             timestamps are never read back. *)
          let base = off + set in
          if tags.(base) = line then begin
            t.bhits.(i) <- t.bhits.(i) + 1;
            t.times.(i) <- t.times.(i) + hit_cost
          end
          else begin
            tags.(base) <- line;
            t.bmisses.(i) <- t.bmisses.(i) + 1;
            t.times.(i) <- t.times.(i) + miss_cost
          end
        end
        else begin
          let tick = t.ticks.(i) + 1 in
          t.ticks.(i) <- tick;
          let base = off + (set * assoc) in
          let hit = ref (-1) in
          let lru = ref 0 in
          let way = ref 0 in
          while !hit < 0 && !way < assoc do
            if tags.(base + !way) = line then hit := !way
            else begin
              if tags.(base + !way) = -1 then lru := !way
              else if
                tags.(base + !lru) <> -1
                && stamps.(base + !way) < stamps.(base + !lru)
              then lru := !way;
              incr way
            end
          done;
          if !hit >= 0 then begin
            stamps.(base + !hit) <- tick;
            t.bhits.(i) <- t.bhits.(i) + 1;
            t.times.(i) <- t.times.(i) + hit_cost
          end
          else begin
            tags.(base + !lru) <- line;
            stamps.(base + !lru) <- tick;
            t.bmisses.(i) <- t.bmisses.(i) + 1;
            t.times.(i) <- t.times.(i) + miss_cost
          end
        end
      done
    done

  let access t ~addr ~size =
    let span = if size > 1 then size - 1 else 0 in
    let sh = t.uniform_shift in
    if sh >= 0 then begin
      let first = addr asr sh and last = (addr + span) asr sh in
      if first = last then access_line t first
      else
        for line = first to last do
          access_line t line
        done
    end
    else access_general t ~addr ~span

  let line_shift t = if t.uniform_shift >= 0 then Some t.uniform_shift else None
  let configs t = t.configs
  let uniform t = t.uniform_shift >= 0
  let misses t i = t.bmisses.(i)
  let accesses t i = if uniform t then t.probes else t.bhits.(i) + t.bmisses.(i)
  let hits t i = accesses t i - misses t i

  let miss_ratio t i =
    let n = accesses t i in
    if n = 0 then 0.0 else float_of_int (misses t i) /. float_of_int n

  let fetch_cost t i = (hits t i * hit_cost) + (misses t i * miss_cost)
end
