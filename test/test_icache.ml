(* The instruction-cache simulators: the reference oracle's behaviour,
   and the one-pass Bank held equal to it. *)

let config ?(kb = 1) ?(cs = false) ?(assoc = 1) () =
  { Icache.size_bytes = kb * 1024; line_bytes = 16; context_switches = cs; assoc }

let test_cold_miss_then_hits () =
  let c = Icache_oracle.create (config ()) in
  Icache_oracle.access c ~addr:0x1000 ~size:4;
  Icache_oracle.access c ~addr:0x1004 ~size:4;
  Icache_oracle.access c ~addr:0x1008 ~size:4;
  Alcotest.(check int) "one miss" 1 (Icache_oracle.misses c);
  Alcotest.(check int) "two hits" 2 (Icache_oracle.hits c);
  Alcotest.(check int) "fetch cost" (10 + 2) (Icache_oracle.fetch_cost c)

let test_conflict_eviction () =
  (* 1 KiB direct-mapped: addresses 1 KiB apart collide. *)
  let c = Icache_oracle.create (config ()) in
  Icache_oracle.access c ~addr:0x0000 ~size:4;
  Icache_oracle.access c ~addr:0x0400 ~size:4;
  Icache_oracle.access c ~addr:0x0000 ~size:4;
  Alcotest.(check int) "all misses" 3 (Icache_oracle.misses c)

let test_line_straddle () =
  (* A 6-byte CISC instruction crossing a 16-byte boundary touches two
     lines. *)
  let c = Icache_oracle.create (config ()) in
  Icache_oracle.access c ~addr:0x100C ~size:6;
  Alcotest.(check int) "two accesses" 2 (Icache_oracle.accesses c);
  Alcotest.(check int) "two misses" 2 (Icache_oracle.misses c)

let test_context_switch_flush () =
  let on = Icache_oracle.create (config ~cs:true ()) in
  let off = Icache_oracle.create (config ~cs:false ()) in
  (* Loop over one line for more than 10,000 time units. *)
  for _ = 1 to 10_200 do
    Icache_oracle.access on ~addr:0x2000 ~size:4;
    Icache_oracle.access off ~addr:0x2000 ~size:4
  done;
  Alcotest.(check int) "no flush without context switches" 1 (Icache_oracle.misses off);
  Alcotest.(check bool) "flushes add misses" true (Icache_oracle.misses on > 1)

let test_reset () =
  let c = Icache_oracle.create (config ()) in
  Icache_oracle.access c ~addr:0x0 ~size:4;
  Icache_oracle.reset c;
  Alcotest.(check int) "hits cleared" 0 (Icache_oracle.hits c);
  Alcotest.(check int) "misses cleared" 0 (Icache_oracle.misses c);
  Icache_oracle.access c ~addr:0x0 ~size:4;
  Alcotest.(check int) "cold again" 1 (Icache_oracle.misses c)

let test_paper_configs () =
  Alcotest.(check int) "eight configurations" 8 (List.length Icache.paper_configs);
  List.iter
    (fun c ->
      Alcotest.(check int) "16-byte lines" 16 c.Icache.line_bytes;
      Alcotest.(check bool) "power-of-two KiB" true
        (List.mem (c.Icache.size_bytes / 1024) [ 1; 2; 4; 8 ]))
    Icache.paper_configs

let test_bigger_cache_never_worse_sequential () =
  (* For a simple loop trace, larger caches can only reduce misses. *)
  let mk kb = Icache_oracle.create (config ~kb ()) in
  let c1 = mk 1 and c8 = mk 8 in
  for _ = 1 to 50 do
    for i = 0 to 599 do
      let addr = 0x4000 + (i * 4) in
      Icache_oracle.access c1 ~addr ~size:4;
      Icache_oracle.access c8 ~addr ~size:4
    done
  done;
  Alcotest.(check bool) "8K no worse than 1K" true
    (Icache_oracle.misses c8 <= Icache_oracle.misses c1);
  (* The 2400-byte loop fits in 8K: only cold misses. *)
  Alcotest.(check int) "8K only cold misses" 150 (Icache_oracle.misses c8)

let test_associativity_resolves_conflicts () =
  (* Two addresses one cache-size apart conflict in a direct-mapped cache
     but coexist in a 2-way set. *)
  let direct = Icache_oracle.create (config ~kb:1 ()) in
  let twoway = Icache_oracle.create (config ~kb:1 ~assoc:2 ()) in
  for _ = 1 to 100 do
    List.iter
      (fun addr ->
        Icache_oracle.access direct ~addr ~size:4;
        Icache_oracle.access twoway ~addr ~size:4)
      [ 0x0000; 0x0400 ]
  done;
  Alcotest.(check int) "direct thrashes" 200 (Icache_oracle.misses direct);
  Alcotest.(check int) "two-way keeps both" 2 (Icache_oracle.misses twoway)

let test_lru_eviction_order () =
  (* 2-way: touching A, B, then C (all one set) evicts A, the least
     recently used. *)
  let c = Icache_oracle.create (config ~kb:1 ~assoc:2 ()) in
  let a = 0x0000 and b = 0x0400 and cc = 0x0800 in
  Icache_oracle.access c ~addr:a ~size:4;
  Icache_oracle.access c ~addr:b ~size:4;
  Icache_oracle.access c ~addr:cc ~size:4;
  (* B must still be resident; A must not. *)
  Icache_oracle.access c ~addr:b ~size:4;
  Alcotest.(check int) "b still hits" 1 (Icache_oracle.hits c);
  Icache_oracle.access c ~addr:a ~size:4;
  Alcotest.(check int) "a was evicted" 4 (Icache_oracle.misses c)

let prop_assoc_never_worse_lru =
  QCheck.Test.make ~name:"for looping traces, 2-way misses <= direct misses"
    ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 2 30) (int_range 0 40))
    (fun lines ->
      (* A repeating loop trace: LRU with more ways can only help. *)
      let direct = Icache_oracle.create (config ~kb:1 ()) in
      let twoway = Icache_oracle.create (config ~kb:1 ~assoc:2 ()) in
      for _ = 1 to 30 do
        List.iter
          (fun l ->
            let addr = l * 1024 in
            Icache_oracle.access direct ~addr ~size:4;
            Icache_oracle.access twoway ~addr ~size:4)
          lines
      done;
      (* Not a theorem for arbitrary traces (Belady anomalies), but it holds
         for this single-set pattern where direct always conflicts. *)
      Icache_oracle.misses twoway <= Icache_oracle.misses direct + 30)

let prop_counters_consistent =
  QCheck.Test.make ~name:"hits + misses = accesses; ratio in [0,1]" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 100_000))
    (fun addrs ->
      let c = Icache_oracle.create (config ~kb:2 ()) in
      List.iter (fun a -> Icache_oracle.access c ~addr:a ~size:4) addrs;
      Icache_oracle.hits c + Icache_oracle.misses c = Icache_oracle.accesses c
      && Icache_oracle.miss_ratio c >= 0.0
      && Icache_oracle.miss_ratio c <= 1.0
      && Icache_oracle.fetch_cost c = Icache_oracle.hits c + (10 * Icache_oracle.misses c))

let prop_repeat_hits =
  QCheck.Test.make ~name:"immediate re-access always hits" ~count:100
    QCheck.(int_range 0 1_000_000) (fun addr ->
      let c = Icache_oracle.create (config ~kb:4 ()) in
      Icache_oracle.access c ~addr ~size:4;
      let m = Icache_oracle.misses c in
      Icache_oracle.access c ~addr ~size:4;
      Icache_oracle.misses c = m)

(* --- Bank: the one-pass multi-configuration simulator ------------- *)

(* Every statistic of a bank must equal feeding the same stream to one
   dedicated cache per configuration — including the LRU and context-
   switch corner cases, which is why the config list here goes beyond
   the paper's direct-mapped set. *)
let bank_test_configs =
  Icache.paper_configs
  @ [
      config ~kb:1 ~assoc:2 ();
      config ~kb:2 ~assoc:4 ~cs:true ();
      config ~kb:1 ~assoc:2 ~cs:true ();
    ]

(* The bank agrees with one oracle per configuration on every
   statistic. *)
let bank_equals_oracles configs feed stream =
  let bank = Icache.Bank.create configs in
  let caches = List.map Icache_oracle.create configs in
  feed bank stream;
  List.iter
    (fun (addr, size) -> List.iter (fun c -> Icache_oracle.access c ~addr ~size) caches)
    stream;
  List.for_all
    (fun (i, c) ->
      Icache.Bank.hits bank i = Icache_oracle.hits c
      && Icache.Bank.misses bank i = Icache_oracle.misses c
      && Icache.Bank.accesses bank i = Icache_oracle.accesses c
      && Icache.Bank.miss_ratio bank i = Icache_oracle.miss_ratio c
      && Icache.Bank.fetch_cost bank i = Icache_oracle.fetch_cost c)
    (List.mapi (fun i c -> (i, c)) caches)

let per_fetch bank stream =
  List.iter (fun (addr, size) -> Icache.Bank.access bank ~addr ~size) stream

let test_bank_basic () =
  Alcotest.(check bool) "bank agrees with the oracles" true
    (bank_equals_oracles bank_test_configs per_fetch
       [ (0x1000, 4); (0x1004, 4); (0x0000, 4); (0x0400, 6); (0x100C, 6) ])

let test_bank_reset () =
  let bank = Icache.Bank.create Icache.paper_configs in
  Icache.Bank.access bank ~addr:0x40 ~size:4;
  Icache.Bank.reset bank;
  for i = 0 to Array.length (Icache.Bank.configs bank) - 1 do
    Alcotest.(check int) "accesses cleared" 0 (Icache.Bank.accesses bank i)
  done;
  Icache.Bank.access bank ~addr:0x40 ~size:4;
  Alcotest.(check int) "cold again" 1 (Icache.Bank.misses bank 0)

let prop_bank_matches_individual_caches =
  (* Long streams of small strides tripping line straddles, conflicts
     and (at > 10,000 accumulated time units) context-switch flushes. *)
  QCheck.Test.make
    ~name:"Bank statistics equal one-cache-per-config simulation" ~count:30
    QCheck.(
      list_of_size
        (QCheck.Gen.int_range 50 600)
        (pair (int_range 0 20_000) (int_range 1 8)))
    (fun stream ->
      (* Repeat the stream so context-switch clocks actually wrap. *)
      bank_equals_oracles bank_test_configs per_fetch
        (List.concat (List.init 8 (fun _ -> stream))))

(* --- Bank: the uniform (all direct-mapped, one line size) path ------ *)

(* Every paper sweep takes the bank's uniform path, which the mixed
   [bank_test_configs] above never reach.  These streams have the
   locality of real code: a few blocks of variable-size fetches (1-8
   bytes, so CISC-style fetches straddle lines) at random addresses,
   replayed round after round.  Runs within a line, line changes that
   hit, conflicts between blocks and — over enough rounds — several
   wraps of the context-switch clocks all occur. *)
let looping_stream =
  QCheck.make
    ~print:(fun (blocks, rounds) ->
      Printf.sprintf "%d blocks x %d rounds" (List.length blocks) rounds)
    QCheck.Gen.(
      pair
        (list_size (int_range 1 12)
           (pair (int_range 0 16_383) (list_size (int_range 1 24) (int_range 1 8))))
        (int_range 30 150))

let expand_stream (blocks, rounds) =
  List.concat
    (List.init rounds (fun _ ->
         List.concat_map
           (fun (start, sizes) ->
             let addr = ref start in
             List.map
               (fun size ->
                 let a = !addr in
                 addr := a + size;
                 (a, size))
               sizes)
           blocks))

let uniform_config ~line ~bytes ~cs =
  { Icache.size_bytes = bytes; line_bytes = line; context_switches = cs; assoc = 1 }

(* A second uniform geometry: 32-byte lines, creation order not sorted
   by size, and the smallest cache switching contexts — so the bank
   cannot answer "hit everywhere" from its smallest ctx-off cache and
   must probe each configuration. *)
let ctx_on_smallest_configs =
  List.map
    (fun (bytes, cs) -> uniform_config ~line:32 ~bytes ~cs)
    [ (4096, false); (512, true); (1024, false); (2048, true); (1024, true) ]

let prop_uniform_bank name configs =
  QCheck.Test.make ~name ~count:25 looping_stream (fun s ->
      bank_equals_oracles configs per_fetch (expand_stream s))

let prop_paper_bank =
  prop_uniform_bank "paper-config Bank equals the oracle on looping streams"
    Icache.paper_configs

let prop_ctx_on_smallest_bank =
  prop_uniform_bank "uniform Bank with a ctx-on smallest cache equals the oracle"
    ctx_on_smallest_configs

(* The same stream fed as runs: consecutive fetches confined to one
   line become one [access_run]; a fetch straddling lines stays a plain
   [access]. *)
let run_fed bank stream =
  let shift = Option.get (Icache.Bank.line_shift bank) in
  let flush line count =
    if count > 0 then Icache.Bank.access_run bank ~line ~count
  in
  let line, count =
    List.fold_left
      (fun (line, count) (addr, size) ->
        let first = addr asr shift and last = (addr + size - 1) asr shift in
        if first <> last then begin
          flush line count;
          Icache.Bank.access bank ~addr ~size;
          (-1, 0)
        end
        else if first = line then (line, count + 1)
        else begin
          flush line count;
          (first, 1)
        end)
      (-1, 0) stream
  in
  flush line count

let prop_run_fed_bank =
  QCheck.Test.make ~name:"run-fed Bank equals the per-fetch oracle" ~count:25
    looping_stream (fun s ->
      let stream = expand_stream s in
      bank_equals_oracles Icache.paper_configs run_fed stream
      && bank_equals_oracles ctx_on_smallest_configs run_fed stream)

let tests =
  ( "icache",
    [
      Alcotest.test_case "cold miss then hits" `Quick test_cold_miss_then_hits;
      Alcotest.test_case "conflict eviction" `Quick test_conflict_eviction;
      Alcotest.test_case "line straddle" `Quick test_line_straddle;
      Alcotest.test_case "context switch flush" `Quick test_context_switch_flush;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "paper configurations" `Quick test_paper_configs;
      Alcotest.test_case "capacity behavior" `Quick test_bigger_cache_never_worse_sequential;
      Alcotest.test_case "associativity" `Quick test_associativity_resolves_conflicts;
      Alcotest.test_case "lru order" `Quick test_lru_eviction_order;
      Alcotest.test_case "bank basic agreement" `Quick test_bank_basic;
      Alcotest.test_case "bank reset" `Quick test_bank_reset;
      QCheck_alcotest.to_alcotest prop_assoc_never_worse_lru;
      QCheck_alcotest.to_alcotest prop_counters_consistent;
      QCheck_alcotest.to_alcotest prop_repeat_hits;
      QCheck_alcotest.to_alcotest prop_bank_matches_individual_caches;
      QCheck_alcotest.to_alcotest prop_paper_bank;
      QCheck_alcotest.to_alcotest prop_ctx_on_smallest_bank;
      QCheck_alcotest.to_alcotest prop_run_fed_bank;
    ] )
