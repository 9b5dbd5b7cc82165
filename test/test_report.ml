(* The offline report library: parsing the bench sweep's JSON back,
   Table 4/5/6 arithmetic, the compare and gnuplot-data renderers, and
   the JSONL event summary. *)

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A miniature BENCH_results.json: one program measured at all three
   levels on one machine, with round numbers so the expected percentages
   are obvious by hand.  SIMPLE: 100 static / 1000 dynamic; LOOPS: 110 /
   900; JUMPS: 120 / 800. *)
let cache size miss fetch =
  Printf.sprintf
    {|{"config":"%dKb/direct/ctx-off","size_kb":%d,"assoc":1,"context_switches":false,"miss_ratio":%f,"fetch_cost":%d}|}
    size size miss fetch

let result ~level ~static ~dyn ~ujumps ~miss =
  Printf.sprintf
    {|{"program":"wc","level":"%s","machine":"risc",
       "static_instrs":%d,"static_ujumps":%d,"static_nops":1,
       "dyn_instrs":%d,"dyn_ujumps":%d,"dyn_nops":2,"dyn_transfers":50,
       "instrs_between_branches":4.5,"output_ok":true,"timed_out":false,
       "caches":[%s]}|}
    level static ujumps dyn (ujumps * 10) (cache 1 miss 1234)

let fixture =
  Printf.sprintf {|{"results":[%s,%s,%s],"counters":{"measure.runs":3}}|}
    (result ~level:"SIMPLE" ~static:100 ~dyn:1000 ~ujumps:10 ~miss:0.05)
    (result ~level:"LOOPS" ~static:110 ~dyn:900 ~ujumps:8 ~miss:0.04)
    (result ~level:"JUMPS" ~static:120 ~dyn:800 ~ujumps:0 ~miss:0.03)

let parse s =
  match Report.parse_results s with
  | Ok doc -> doc
  | Error e -> Alcotest.fail ("fixture rejected: " ^ e)

let test_parse () =
  let doc = parse fixture in
  Alcotest.(check int) "three rows" 3 (List.length doc.Report.rows);
  Alcotest.(check (list string)) "machines" [ "risc" ] (Report.machines doc);
  Alcotest.(check (list string)) "programs" [ "wc" ] (Report.programs doc);
  Alcotest.(check (list string))
    "wc complete" [ "wc" ]
    (Report.complete_programs doc "risc");
  Alcotest.(check (list (pair string int)))
    "counters"
    [ ("measure.runs", 3) ]
    doc.Report.counters;
  let r =
    Option.get (Report.find doc ~program:"wc" ~level:"JUMPS" ~machine:"risc")
  in
  Alcotest.(check int) "static" 120 r.Report.static_instrs;
  Alcotest.(check int) "dyn" 800 r.Report.dyn_instrs;
  Alcotest.(check int) "no ujumps left" 0 r.Report.dyn_ujumps;
  (match r.Report.caches with
  | [ c ] ->
    Alcotest.(check int) "cache size" 1 c.Report.cr_size_kb;
    Alcotest.(check bool) "ctx off" false c.Report.cr_ctx
  | _ -> Alcotest.fail "expected one cache row");
  (* Junk documents give an error, not an exception. *)
  List.iter
    (fun bad ->
      match Report.parse_results bad with
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad)
      | Error _ -> ())
    [ "nonsense"; "{}"; {|{"results":[{"program":"p"}]}|} ]

let test_render_tables () =
  let md = Report.render ~title:"unit fixture" (parse fixture) in
  Alcotest.(check bool) "title" true (contains md "unit fixture");
  Alcotest.(check bool) "table 5 section" true (contains md "Table 5 shape");
  Alcotest.(check bool) "table 4 section" true (contains md "Table 4 shape");
  Alcotest.(check bool) "table 6 section" true (contains md "Table 6 shape");
  (* LOOPS static: (110-100)/100 = +10%; JUMPS dynamic: (800-1000)/1000 =
     -20%.  With one program the mean rows equal the program rows. *)
  Alcotest.(check bool) "loops static +10%" true (contains md "+10.0");
  Alcotest.(check bool) "jumps dynamic -20%" true (contains md "-20.0");
  (* Table 6, 1Kb: miss 0.05 -> 0.03 is -2 percentage points. *)
  Alcotest.(check bool) "miss delta in pp" true (contains md "-2.0");
  Alcotest.(check bool) "verification verdict" true (contains md "3 measurement")

let test_compare () =
  let a = parse fixture in
  let same = Report.compare_docs ~name_a:"A" ~name_b:"B" a a in
  Alcotest.(check bool) "self-compare is quiet" true
    (contains same "No measurement changed");
  let b =
    parse
      (Printf.sprintf {|{"results":[%s,%s,%s],"counters":{"measure.runs":3}}|}
         (result ~level:"SIMPLE" ~static:100 ~dyn:1000 ~ujumps:10 ~miss:0.05)
         (result ~level:"LOOPS" ~static:110 ~dyn:900 ~ujumps:8 ~miss:0.04)
         (result ~level:"JUMPS" ~static:125 ~dyn:790 ~ujumps:0 ~miss:0.03))
  in
  let diff = Report.compare_docs ~name_a:"A" ~name_b:"B" a b in
  Alcotest.(check bool) "changed row reported" true
    (contains diff "wc" && contains diff "JUMPS");
  Alcotest.(check bool) "old and new static shown" true
    (contains diff "120" && contains diff "125")

let test_dat_files () =
  let files = Report.dat_files (parse fixture) in
  let names = List.map fst files in
  Alcotest.(check bool) "instrs file" true (List.mem "instrs_risc.dat" names);
  Alcotest.(check bool) "cache file" true (List.mem "cache_risc.dat" names);
  List.iter
    (fun (name, contents) ->
      Alcotest.(check bool) (name ^ " has header") true
        (String.length contents > 0 && contents.[0] = '#');
      (* Every data line has the same field count as the header. *)
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' contents)
      in
      let width l = List.length (String.split_on_char '\t' l) in
      let w = width (List.hd lines) in
      List.iter
        (fun l -> Alcotest.(check int) (name ^ " column count") w (width l))
        lines)
    files

let test_event_summary () =
  let jsonl =
    String.concat "\n"
      [
        {|{"seq":0,"t_ms":0.1,"ev":"pass_end","func":"main"}|};
        {|{"seq":1,"t_ms":0.2,"ev":"pass_end","func":"wc"}|};
        {|{"seq":2,"t_ms":0.3,"ev":"warning","message":"m"}|};
        "not json at all";
      ]
  in
  let md = Report.summarize_events jsonl in
  Alcotest.(check bool) "counts pass_end" true (contains md "pass_end");
  Alcotest.(check bool) "counts warning" true (contains md "warning");
  Alcotest.(check bool) "two pass_ends" true (contains md "2")

(* A two-program document with hand-picked values for the sections the
   single-program fixture cannot exercise: a nonzero standard deviation,
   context-switching caches and the section 5.2 statistics.  Every
   instruction count is 100 static / 1000 dynamic, so the unconditional
   jump counts below read directly as percentages (static) and tenths of
   a percent (dynamic). *)
let spread =
  let caches ~miss_off ~cost_off ~miss_on ~cost_on =
    Printf.sprintf
      {|{"config":"1Kb/direct/ctx-on","size_kb":1,"assoc":1,"context_switches":true,"miss_ratio":%f,"fetch_cost":%d},
        {"config":"1Kb/direct/ctx-off","size_kb":1,"assoc":1,"context_switches":false,"miss_ratio":%f,"fetch_cost":%d}|}
      miss_on cost_on miss_off cost_off
  in
  let row ~program ~machine ~level ~sj ~dj ~ibb ~nops ~caches =
    Printf.sprintf
      {|{"program":"%s","level":"%s","machine":"%s",
         "static_instrs":100,"static_ujumps":%d,"static_nops":0,
         "dyn_instrs":1000,"dyn_ujumps":%d,"dyn_nops":%d,"dyn_transfers":100,
         "instrs_between_branches":%.3f,"output_ok":true,"timed_out":false,
         "caches":[%s]}|}
      program level machine sj dj nops ibb caches
  in
  (* Per level: the same caches for both programs.  ctx off: miss
     0.10/0.09/0.12, cost 1000/900/1100; ctx on: miss 0.20/0.20/0.25,
     cost 2000/1900/2200. *)
  let simple = caches ~miss_off:0.10 ~cost_off:1000 ~miss_on:0.20 ~cost_on:2000
  and loops = caches ~miss_off:0.09 ~cost_off:900 ~miss_on:0.20 ~cost_on:1900
  and jumps = caches ~miss_off:0.12 ~cost_off:1100 ~miss_on:0.25 ~cost_on:2200 in
  let rows =
    [
      row ~program:"p1" ~machine:"risc" ~level:"SIMPLE" ~sj:10 ~dj:50 ~ibb:4.0 ~nops:30 ~caches:simple;
      row ~program:"p1" ~machine:"risc" ~level:"LOOPS" ~sj:6 ~dj:20 ~ibb:5.0 ~nops:25 ~caches:loops;
      row ~program:"p1" ~machine:"risc" ~level:"JUMPS" ~sj:0 ~dj:0 ~ibb:6.0 ~nops:20 ~caches:jumps;
      row ~program:"p2" ~machine:"risc" ~level:"SIMPLE" ~sj:4 ~dj:30 ~ibb:5.0 ~nops:10 ~caches:simple;
      row ~program:"p2" ~machine:"risc" ~level:"LOOPS" ~sj:2 ~dj:20 ~ibb:6.0 ~nops:10 ~caches:loops;
      row ~program:"p2" ~machine:"risc" ~level:"JUMPS" ~sj:0 ~dj:0 ~ibb:8.0 ~nops:10 ~caches:jumps;
      (* A machine without delay slots executes no no-ops. *)
      row ~program:"p1" ~machine:"cisc" ~level:"SIMPLE" ~sj:5 ~dj:40 ~ibb:5.0 ~nops:0 ~caches:simple;
      row ~program:"p1" ~machine:"cisc" ~level:"LOOPS" ~sj:5 ~dj:40 ~ibb:5.0 ~nops:0 ~caches:loops;
      row ~program:"p1" ~machine:"cisc" ~level:"JUMPS" ~sj:0 ~dj:0 ~ibb:7.0 ~nops:0 ~caches:jumps;
    ]
  in
  parse (Printf.sprintf {|{"results":[%s],"counters":{}}|} (String.concat "," rows))

let check_contains what md line =
  if not (contains md line) then
    Alcotest.failf "%s: missing line %S in:\n%s" what line md

let test_table4_stddev () =
  let md = Report.table4 spread in
  (* Static %: SIMPLE {10, 4} -> mean 7, population stddev 3; LOOPS {6, 2}
     -> 4 and 2.  Dynamic %: SIMPLE {5, 3} -> 4 and 1; LOOPS {2, 2} -> 2
     and 0. *)
  check_contains "mean row" md "| risc | mean | 7.00 / 4.00 / 0.00 | 4.00 / 2.00 / 0.00 |";
  check_contains "stddev row" md "| risc | stddev | 3.00 / 2.00 / 0.00 | 1.00 / 0.00 / 0.00 |";
  (* One program has no spread. *)
  check_contains "single-program stddev" md "| cisc | stddev | 0.00 / 0.00 / 0.00 | 0.00 / 0.00 / 0.00 |"

let test_table6_ctx_rows () =
  let md = Report.table6 spread in
  check_contains "heading" md "## Instruction cache (Table 6 shape)";
  check_contains "miss ctx off" md "| risc | off | -1.00 / +2.00 |";
  check_contains "miss ctx on" md "| risc | on | +0.00 / +5.00 |";
  check_contains "cost ctx off" md "| risc | off | -10.00 / +10.00 |";
  check_contains "cost ctx on" md "| risc | on | -5.00 / +10.00 |"

let test_section52 () =
  let md = Report.section52 spread in
  (* IBB means: SIMPLE (4+5)/2, LOOPS (5+6)/2, JUMPS (6+8)/2. *)
  check_contains "ibb risc" md "| risc | 4.50 | 5.50 | 7.00 |";
  check_contains "ibb cisc" md "| cisc | 5.00 | 5.00 | 7.00 |";
  (* No-ops: SIMPLE 30+10, JUMPS 20+10 -> 25% eliminated. *)
  check_contains "no-ops risc" md "| risc | 40 | 30 | 25.0% |";
  Alcotest.(check bool) "no-op-free machine left out" false
    (contains md "| cisc | 0 | 0 |");
  (* The full report is the concatenation of its sections. *)
  let full = Report.render ~title:"t" spread in
  List.iter
    (fun section -> Alcotest.(check bool) "render includes section" true (contains full section))
    [ Report.table4 spread; Report.table5 spread; Report.table6 spread; md ]

let tests =
  ( "report",
    [
      Alcotest.test_case "parse results" `Quick test_parse;
      Alcotest.test_case "render tables" `Quick test_render_tables;
      Alcotest.test_case "compare docs" `Quick test_compare;
      Alcotest.test_case "dat files" `Quick test_dat_files;
      Alcotest.test_case "event summary" `Quick test_event_summary;
      Alcotest.test_case "table 4 stddev row" `Quick test_table4_stddev;
      Alcotest.test_case "table 6 ctx-on rows" `Quick test_table6_ctx_rows;
      Alcotest.test_case "section 5.2 statistics" `Quick test_section52;
    ] )
