(* Small helpers shared by the workloads: clocks, order statistics,
   process memory, work directories and the golden rows. *)

let now = Unix.gettimeofday

(* [time f] is [f ()] and its wall-clock duration in seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted l = List.sort compare l

(* Linear interpolation between closest ranks, as numpy's default. *)
let percentile p = function
  | [] -> nan
  | l ->
    let a = Array.of_list (sorted l) in
    let n = Array.length a in
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile 0.5 l

let geomean = function
  | [] -> nan
  | l ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. l
      /. float_of_int (List.length l))

let sum l = List.fold_left ( +. ) 0. l

(* Peak resident set ([VmHWM]) of a live process, in kB; 0 when the
   process is gone or /proc is unavailable. *)
let vmhwm_kb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if path <> "" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- the 114-task paper sweep and its golden rows --------------------- *)

let levels = [ Opt.Driver.Simple; Opt.Driver.Loops; Opt.Driver.Jumps ]
let machines = [ Ir.Machine.risc; Ir.Machine.cisc ]

(* [bench/main.exe]'s task order: machine, then level, then program. *)
let paper_tasks =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun level -> List.map (fun b -> (b, level, machine)) Programs.Suite.all)
        levels)
    machines

let task_key (b : Programs.Suite.benchmark) level (m : Ir.Machine.t) =
  Printf.sprintf "%s/%s/%s" b.name (Opt.Driver.level_name level) m.short

(* One entry per failed task, whatever number of checks it failed:
   [failures] pairs a task key with what went wrong. *)
let dedupe failures =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (key, why) ->
      if Hashtbl.mem seen key then None
      else (
        Hashtbl.add seen key ();
        Some (key ^ ": " ^ why)))
    failures

(* The committed [BENCH_baseline.json] rows, verbatim, keyed like
   [task_key].  Every row there was checked against gcc's output when it
   was recorded, and the repository holds its sweeps byte-identical to
   it, so a row equal to its golden is a correct measurement. *)
type goldens = (string, string) Hashtbl.t

let parse_row row =
  match Telemetry.Json.parse row with
  | Ok j -> j
  | Error e -> failwith ("unparsable row: " ^ e)

let field name j =
  match Telemetry.Json.member name j with
  | Some v -> v
  | None -> failwith ("row has no field " ^ name)

let get what conv name j =
  match conv (field name j) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "row field %s is not %s" name what)

let str_field = get "a string" Telemetry.Json.get_string
let int_field = get "an integer" Telemetry.Json.get_int

(* Split the results array into its rows without re-rendering them:
   re-printing parsed floats could change their digits. *)
let split_rows text =
  let key = "\"results\":[" in
  let klen = String.length key in
  let rec find i =
    if i + klen > String.length text then failwith "no results array"
    else if String.sub text i klen = key then i + klen
    else find (i + 1)
  in
  let start = find 0 in
  let rows = ref [] in
  let rec scan i depth row_start in_str =
    if i >= String.length text then failwith "unterminated results array"
    else
      let c = text.[i] in
      if in_str then
        if c = '\\' then scan (i + 2) depth row_start true
        else scan (i + 1) depth row_start (c <> '"')
      else
        match c with
        | '"' -> scan (i + 1) depth row_start true
        | '{' | '[' ->
          scan (i + 1) (depth + 1) (if depth = 0 then i else row_start) false
        | '}' | ']' when depth = 0 -> ()
        | '}' | ']' ->
          if depth = 1 then
            rows := String.sub text row_start (i - row_start + 1) :: !rows;
          scan (i + 1) (depth - 1) row_start false
        | _ -> scan (i + 1) depth row_start false
  in
  scan start 0 start false;
  List.rev !rows

let load_goldens path : goldens =
  let rows = split_rows (read_file path) in
  let t = Hashtbl.create 128 in
  List.iter
    (fun row ->
      let j = parse_row row in
      let s name = str_field name j in
      Hashtbl.replace t (Printf.sprintf "%s/%s/%s" (s "program") (s "level") (s "machine")) row)
    rows;
  if Hashtbl.length t <> List.length paper_tasks then
    failwith
      (Printf.sprintf "%s holds %d rows, the sweep has %d tasks" path
         (Hashtbl.length t) (List.length paper_tasks));
  t

let golden (g : goldens) key =
  match Hashtbl.find_opt g key with
  | Some r -> r
  | None -> failwith ("no golden row for " ^ key)
