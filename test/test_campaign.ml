(* Campaign store, key derivation and resumable sweeps. *)

module Store = Campaign.Store
module Key = Campaign.Key
module Json = Telemetry.Json

let temp_counter = ref 0

let temp_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jumprep-store-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  (* A fresh name per test run; the store creates the tree itself. *)
  dir

let entry_path dir key =
  Filename.concat dir
    (Filename.concat "objects"
       (Filename.concat (String.sub key 0 2) (key ^ ".json")))

let sample_entry i =
  Json.Obj
    [
      ("kind", Json.Str "test/1");
      ("index", Json.Int i);
      ("row", Json.Str (Printf.sprintf "{\"x\":%d}" i));
    ]

let sample_key i = Key.hex ~kind:"test/1" [ ("i", string_of_int i) ]

let test_roundtrip () =
  let st = Store.open_ (temp_dir ()) in
  let key = sample_key 0 in
  Alcotest.(check bool) "miss before commit" true (Store.find st key = Store.Miss);
  Store.lease st key;
  Alcotest.(check (list string)) "lease pending" [ key ] (Store.pending st);
  Store.commit st ~key (sample_entry 0);
  Alcotest.(check (list string)) "done clears pending" [] (Store.pending st);
  (match Store.find st key with
  | Store.Hit e ->
    Alcotest.(check (option int))
      "payload survives the round trip" (Some 0)
      (Option.bind (Json.member "index" e) Json.get_int)
  | Store.Miss | Store.Corrupt _ -> Alcotest.fail "expected a hit");
  let entries, bytes = Store.disk_usage st in
  Alcotest.(check int) "one committed entry" 1 entries;
  Alcotest.(check bool) "payload bytes counted" true (bytes > 0)

let check_corrupt st key what =
  match Store.find st key with
  | Store.Corrupt d ->
    Alcotest.(check string)
      (what ^ " carries the typed code")
      "store-corrupt"
      (Telemetry.Diag.code_name d.Telemetry.Diag.code)
  | Store.Hit _ -> Alcotest.fail (what ^ ": expected corrupt, got a hit")
  | Store.Miss -> Alcotest.fail (what ^ ": expected corrupt, got a miss")

let test_corruption_truncated () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  let key = sample_key 1 in
  Store.commit st ~key (sample_entry 1);
  Unix.truncate (entry_path dir key) 10;
  check_corrupt st key "truncated entry";
  (* The recompute-and-recommit path restores the entry. *)
  Store.commit st ~key (sample_entry 1);
  match Store.find st key with
  | Store.Hit _ -> ()
  | _ -> Alcotest.fail "recommit did not restore the entry"

let test_corruption_bitflip () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  let key = sample_key 2 in
  Store.commit st ~key (sample_entry 2);
  let path = entry_path dir key in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let len = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (len - 3) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd (len - 3) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  check_corrupt st key "bit-flipped entry"

let test_gc_eviction () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  for i = 0 to 4 do
    let key = sample_key i in
    Store.lease st key;
    Store.commit st ~key (sample_entry i);
    (* mtime granularity: make eviction order deterministic. *)
    let past = Unix.gettimeofday () -. float_of_int (100 - i) in
    Unix.utimes (entry_path dir (sample_key i)) past past
  done;
  (* A stray staged file and a dangling lease for gc to clean up. *)
  let stray = Filename.concat dir (Filename.concat "tmp" "stray.tmp") in
  let oc = open_out stray in
  output_string oc "junk";
  close_out oc;
  let dangling = sample_key 99 in
  Store.lease st dangling;
  let evicted, tmp_removed = Store.gc ~max_entries:2 st in
  Alcotest.(check int) "evicted down to max_entries" 3 evicted;
  Alcotest.(check int) "staged stray removed" 1 tmp_removed;
  let entries, _ = Store.disk_usage st in
  Alcotest.(check int) "two entries survive" 2 entries;
  (* The newest entries survive; the oldest were evicted. *)
  Alcotest.(check bool) "newest survives" true
    (match Store.find st (sample_key 4) with Store.Hit _ -> true | _ -> false);
  Alcotest.(check bool) "oldest evicted" true
    (Store.find st (sample_key 0) = Store.Miss);
  (* Journal compaction keeps the dangling lease visible. *)
  Alcotest.(check (list string))
    "dangling lease survives compaction" [ dangling ] (Store.pending st)

let test_jobs_parsing () =
  Alcotest.(check int) "plain count" 3 (Harness.Pool.parse_jobs "3");
  Alcotest.(check int) "trimmed" 2 (Harness.Pool.parse_jobs " 2 ");
  Alcotest.(check int) "zero falls back to 1" 1 (Harness.Pool.parse_jobs "0");
  Alcotest.(check int) "negative falls back to 1" 1
    (Harness.Pool.parse_jobs "-4");
  Alcotest.(check int) "garbage falls back to 1" 1
    (Harness.Pool.parse_jobs "lots");
  let cap = Domain.recommended_domain_count () in
  Alcotest.(check int) "huge count clamps to the recommended cap" cap
    (Harness.Pool.parse_jobs (string_of_int ((4 * cap) + 1)));
  Alcotest.(check int) "clamp passes sane values" 2
    (Harness.Pool.clamp_jobs ~what:"--workers" 2);
  Alcotest.(check int) "clamp rejects non-positive" 1
    (Harness.Pool.clamp_jobs ~what:"--workers" 0)

(* Keys must be pure functions of their components: identical components
   give identical keys, and changing any single component (or the kind)
   changes the key.  This is what lets a resumed campaign trust entries
   written by an earlier process. *)
let arb_components =
  let open QCheck in
  let name = string_gen_of_size (Gen.int_range 1 8) Gen.printable in
  let value = string_gen_of_size (Gen.int_range 0 16) Gen.printable in
  list_of_size (Gen.int_range 1 5) (pair name value)

let prop_key_stable_and_sensitive =
  QCheck.Test.make ~name:"keys stable; any component change changes the key"
    ~count:200 arb_components (fun components ->
      let k = Key.hex ~kind:"prop/1" components in
      if k <> Key.hex ~kind:"prop/1" components then
        QCheck.Test.fail_report "key not stable across recomputation";
      if k = Key.hex ~kind:"prop/2" components then
        QCheck.Test.fail_report "kind change did not change the key";
      List.iteri
        (fun i (n, v) ->
          let bump j (n', v') = if i = j then (n', v' ^ "x") else (n', v') in
          if k = Key.hex ~kind:"prop/1" (List.mapi bump components) then
            QCheck.Test.fail_reportf "value %d change did not change the key" i;
          let rename j (n', v') =
            if i = j then (n' ^ "y", v') else (n', v')
          in
          if k = Key.hex ~kind:"prop/1" (List.mapi rename components) then
            QCheck.Test.fail_reportf "name %d change did not change the key" i;
          ignore (n, v))
        components;
      if
        k = Key.hex ~kind:"prop/1" (components @ [ ("extra", "") ])
      then QCheck.Test.fail_report "appended component did not change the key";
      true)

let test_key_injective_on_boundaries () =
  (* The length-prefixed encoding must distinguish splits that plain
     concatenation would merge. *)
  let a = Key.hex ~kind:"k" [ ("ab", "c") ] in
  let b = Key.hex ~kind:"k" [ ("a", "bc") ] in
  Alcotest.(check bool) "name/value boundary" true (a <> b);
  let c = Key.hex ~kind:"k" [ ("a", "b"); ("c", "d") ] in
  let d = Key.hex ~kind:"k" [ ("a", "bc"); ("", "d") ] in
  Alcotest.(check bool) "component boundary" true (c <> d)

(* An in-process campaign: cold populate, then a resumed run must serve
   every task from the store and splice back byte-identical rows. *)
let test_sweep_resume_byte_identity () =
  let wc = Option.get (Programs.Suite.find "wc") in
  let tasks =
    [
      (wc, Opt.Driver.Simple, Ir.Machine.risc);
      (wc, Opt.Driver.Jumps, Ir.Machine.risc);
    ]
  in
  let dir = temp_dir () in
  let sweep ~resume =
    let store = Store.open_ dir in
    let log = Telemetry.Log.make Telemetry.Log.Memory in
    let rows, s = Campaign.Runner.sweep ~store ~resume ~log tasks in
    (List.map (fun r -> r.Campaign.Runner.r_row) rows, Telemetry.Counter.all log, s)
  in
  let cold_rows, cold_counters, cold = sweep ~resume:false in
  let warm_rows, warm_counters, warm = sweep ~resume:true in
  Alcotest.(check int) "cold computed everything" 2 cold.Campaign.Runner.computed;
  Alcotest.(check int) "warm computed nothing" 0 warm.Campaign.Runner.computed;
  Alcotest.(check int) "warm all hits" 2 warm.Campaign.Runner.hits;
  Alcotest.(check (list string)) "rows byte-identical" cold_rows warm_rows;
  Alcotest.(check bool) "counters identical" true
    (cold_counters = warm_counters);
  (* The spliced row equals what the plain measurement path renders. *)
  let direct =
    Harness.Measure.to_json
      (Harness.Measure.run wc Opt.Driver.Simple Ir.Machine.risc)
  in
  Alcotest.(check string) "row matches the direct measurement" direct
    (List.hd cold_rows)

let wc = lazy (Option.get (Programs.Suite.find "wc"))

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The worker frame handler, driven in-process: every malformed frame is
   an [ok:false] reply with a fixed message, and a measure frame commits
   an entry a resumed sweep then serves. *)
let test_worker_handler_frames () =
  let wc = Lazy.force wc in
  let store = Store.open_ (temp_dir ()) in
  let handle = Campaign.Runner.worker_handler store in
  Alcotest.(check (option string)) "quit ends the loop" None
    (handle {|{"op":"quit"}|});
  let err msg =
    Some (Json.to_string (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]))
  in
  let frame ~bench ~level ~machine =
    Printf.sprintf
      {|{"op":"measure","bench":"%s","level":"%s","machine":"%s","key":"%s"}|}
      bench level machine (sample_key 0)
  in
  List.iter
    (fun (what, payload, msg) ->
      Alcotest.(check (option string)) what (err msg) (handle payload))
    [
      ("unparsable frame", "{", "unparsable request: " ^ Result.get_error (Json.parse "{"));
      ("no op", {|{"bench":"wc"}|}, "request has no op");
      ("unknown op", {|{"op":"frob"}|}, {|unknown op "frob"|});
      ("missing fields", {|{"op":"measure","bench":"wc"}|}, "measure frame is missing fields");
      ( "unknown bench",
        frame ~bench:"nosuch" ~level:"SIMPLE" ~machine:"risc",
        {|unknown benchmark "nosuch"|} );
      ( "unknown level",
        frame ~bench:"wc" ~level:"FAST" ~machine:"risc",
        {|unknown level "FAST"|} );
      ( "unknown machine",
        frame ~bench:"wc" ~level:"SIMPLE" ~machine:"vax",
        {|unknown machine "vax"|} );
    ];
  let key = Key.measure wc Opt.Driver.Simple Ir.Machine.risc in
  let reply =
    handle
      (Printf.sprintf
         {|{"op":"measure","bench":"wc","level":"SIMPLE","machine":"risc","key":"%s"}|}
         key)
  in
  let j =
    match Option.map Json.parse reply with
    | Some (Ok j) -> j
    | _ -> Alcotest.fail "measure frame: no parsable reply"
  in
  Alcotest.(check (option bool)) "measure reply is ok" (Some true)
    (Option.bind (Json.member "ok" j) Json.get_bool);
  Alcotest.(check (option string)) "reply row is the direct measurement"
    (Some
       (Harness.Measure.to_json
          (Harness.Measure.run wc Opt.Driver.Simple Ir.Machine.risc)))
    (Option.bind (Json.member "row" j) Json.get_string);
  let _, s =
    Campaign.Runner.sweep ~store ~resume:true
      [ (wc, Opt.Driver.Simple, Ir.Machine.risc) ]
  in
  Alcotest.(check int) "resume hits the worker's entry" 1 s.Campaign.Runner.hits;
  Alcotest.(check int) "resume computes nothing" 0 s.Campaign.Runner.computed

(* An entry whose integrity header checks out but whose payload lacks the
   measure fields is corrupt by shape: recomputed behind a diagnostic. *)
let test_sweep_recomputes_misshapen_entry () =
  let wc = Lazy.force wc in
  let tasks = [ (wc, Opt.Driver.Simple, Ir.Machine.risc) ] in
  let rows_of (rows, _) = List.map (fun r -> r.Campaign.Runner.r_row) rows in
  let cold =
    rows_of (Campaign.Runner.sweep ~store:(Store.open_ (temp_dir ())) ~resume:false tasks)
  in
  let store = Store.open_ (temp_dir ()) in
  let key = Key.measure wc Opt.Driver.Simple Ir.Machine.risc in
  Store.commit store ~key
    (Json.Obj [ ("kind", Json.Str "measure/1"); ("key", Json.Str key) ]);
  let rows, s = Campaign.Runner.sweep ~store ~resume:true tasks in
  Alcotest.(check int) "one corrupt entry" 1 s.Campaign.Runner.corrupt;
  Alcotest.(check int) "recomputed" 1 s.Campaign.Runner.computed;
  (match s.Campaign.Runner.diags with
  | [ d ] ->
    Alcotest.(check string) "typed code" "store-corrupt"
      (Telemetry.Diag.code_name d.code);
    Alcotest.(check bool) "diagnostic names the shape" true
      (contains ~sub:"entry is missing measure fields" d.message)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  Alcotest.(check (list string)) "rows byte-identical to a cold run" cold
    (rows_of (rows, s))

let tests =
  ( "campaign",
    [
      Alcotest.test_case "store roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "truncated entry is corrupt, recomputable" `Quick
        test_corruption_truncated;
      Alcotest.test_case "bit-flipped entry is corrupt" `Quick
        test_corruption_bitflip;
      Alcotest.test_case "gc evicts oldest, compacts journal" `Quick
        test_gc_eviction;
      Alcotest.test_case "JUMPREP_JOBS/--workers share one clamp" `Quick
        test_jobs_parsing;
      QCheck_alcotest.to_alcotest prop_key_stable_and_sensitive;
      Alcotest.test_case "key encoding is injective at boundaries" `Quick
        test_key_injective_on_boundaries;
      Alcotest.test_case "sweep resume is byte-identical" `Quick
        test_sweep_resume_byte_identity;
      Alcotest.test_case "worker frames: errors, measure, resume" `Quick
        test_worker_handler_frames;
      Alcotest.test_case "misshapen entry is corrupt, recomputed" `Quick
        test_sweep_recomputes_misshapen_entry;
    ] )
