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

let check_bank_agrees stream =
  let bank = Icache.Bank.create bank_test_configs in
  let caches = List.map Icache_oracle.create bank_test_configs in
  List.iter
    (fun (addr, size) ->
      Icache.Bank.access bank ~addr ~size;
      List.iter (fun c -> Icache_oracle.access c ~addr ~size) caches)
    stream;
  List.iteri
    (fun i c ->
      let agrees =
        Icache.Bank.hits bank i = Icache_oracle.hits c
        && Icache.Bank.misses bank i = Icache_oracle.misses c
        && Icache.Bank.accesses bank i = Icache_oracle.accesses c
        && Icache.Bank.miss_ratio bank i = Icache_oracle.miss_ratio c
        && Icache.Bank.fetch_cost bank i = Icache_oracle.fetch_cost c
      in
      Alcotest.(check bool)
        (Printf.sprintf "bank agrees on %s"
           (Icache.config_name (Icache.Bank.configs bank).(i)))
        true agrees)
    caches

let test_bank_basic () =
  check_bank_agrees
    [ (0x1000, 4); (0x1004, 4); (0x0000, 4); (0x0400, 6); (0x100C, 6) ]

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
      let bank = Icache.Bank.create bank_test_configs in
      let caches = List.map Icache_oracle.create bank_test_configs in
      (* Repeat the stream so context-switch clocks actually wrap. *)
      for _ = 1 to 8 do
        List.iter
          (fun (addr, size) ->
            Icache.Bank.access bank ~addr ~size;
            List.iter (fun c -> Icache_oracle.access c ~addr ~size) caches)
          stream
      done;
      List.for_all
        (fun (i, c) ->
          Icache.Bank.hits bank i = Icache_oracle.hits c
          && Icache.Bank.misses bank i = Icache_oracle.misses c
          && Icache.Bank.miss_ratio bank i = Icache_oracle.miss_ratio c
          && Icache.Bank.fetch_cost bank i = Icache_oracle.fetch_cost c)
        (List.mapi (fun i c -> (i, c)) caches))

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
    ] )
