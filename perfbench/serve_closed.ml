(* serve-closed: a fresh [jumprepc serve -j 2] child driven in a closed
   loop by 2 client connections.  A round's requests are every corpus
   (program, machine) pair once as a [measure] request and once as a
   JUMPS [compile] request, shuffled by the seed and dealt alternately
   to the two connections; each connection sends its next request only
   when the previous one has answered. *)

open Util
module P = Daemon.Protocol

let connections = 2

type req = { label : string; request : P.request; expected : string option Lazy.t }

type ctx = {
  dir : string;
  pid : int;
  clients : Daemon.Client.t array;
  lanes : req list array;
}

(* In-process compile payloads, made once per process: compilation is
   deterministic, so later rounds check against the first rendering. *)
let compiled : (string, string option) Hashtbl.t = Hashtbl.create 64

(* Every request of a round, in the seed's order.  A measure payload is
   the three rows of [Daemon.Ops.measure_json]; for corpus programs they
   must equal the golden rows.  A compile payload must equal the one
   [Daemon.Ops.compile_payload] renders in-process. *)
let requests ~seed goldens =
  let reqs =
    List.concat_map
      (fun (b : Programs.Suite.benchmark) ->
        List.concat_map
          (fun (machine : Ir.Machine.t) ->
            let rows =
              lazy
                (Some
                   ("["
                   ^ String.concat ","
                       (List.map (fun l -> golden goldens (task_key b l machine)) levels)
                   ^ "]"))
            in
            let label = Printf.sprintf "compile %s/JUMPS/%s" b.name machine.short in
            let payload =
              lazy
                (match Hashtbl.find_opt compiled label with
                | Some p -> p
                | None ->
                  let p =
                    match
                      Daemon.Ops.compile_payload ~level:Opt.Driver.Jumps ~machine ~path:b.name
                        b.source
                    with
                    | Ok j -> Some (Telemetry.Json.to_string j)
                    | Error _ -> None
                  in
                  Hashtbl.replace compiled label p;
                  p)
            in
            [
              {
                label = Printf.sprintf "measure %s/%s" b.name machine.short;
                request =
                  P.Measure { path = b.name; source = b.source; input = b.input; machine };
                expected = rows;
              };
              {
                label;
                request =
                  P.Compile { path = b.name; source = b.source; level = Opt.Driver.Jumps; machine };
                expected = payload;
              };
            ])
          machines)
      Programs.Suite.all
  in
  let st = Random.State.make [| seed |] in
  let a = Array.of_list reqs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.init connections (fun lane ->
      List.filteri (fun i _ -> i mod connections = lane) (Array.to_list a))

let wait_exit pid ~timeout =
  let deadline = now () +. timeout in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      poll ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  poll ()

let setup ~baseline ~jumprepc ~work ~round ~seed () =
  let goldens = load_goldens baseline in
  let dir = Filename.concat work (Printf.sprintf "serve-%d" round) in
  rm_rf dir;
  mkdir_p dir;
  (* A relative socket path keeps clear of the ~100-byte sun_path limit
     wherever the checkout lives. *)
  let sock = Filename.concat dir "d.sock" in
  let out = Filename.concat dir "daemon.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process jumprepc
      [| jumprepc; "serve"; "--socket"; sock; "-j"; string_of_int connections; "--quiet" |]
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let deadline = now () +. 30. in
  let rec ready () =
    let text = try read_file out with Sys_error _ -> "" in
    let contains s sub =
      let n = String.length sub in
      let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
      at 0
    in
    if contains text "listening" then ()
    else if now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
      wait_exit pid ~timeout:1.;
      failwith "jumprepc serve did not come up"
    end
    else (
      Unix.sleepf 0.002;
      ready ())
  in
  ready ();
  let connect () =
    match Daemon.Client.connect sock with
    | Ok c -> c
    | Error e ->
      wait_exit pid ~timeout:1.;
      failwith ("cannot connect to the daemon: " ^ e)
  in
  let clients = Array.init connections (fun _ -> connect ()) in
  { dir; pid; clients; lanes = requests ~seed goldens }

type answer = {
  req : req;
  client_ms : float;
  outcome : (string * float, P.error_code * string) result;
}

(* Drive both connections in a closed loop.  [in_lane] wraps each
   connection's whole sequence and [on_request] each request; the traced
   round records its spans there. *)
let drive ctx ~in_lane ~on_request =
  let answers = Array.make connections [] in
  let lane i () =
    in_lane i (fun () ->
        List.iter
          (fun r ->
            let outcome, dt =
              on_request i (fun () ->
                  time (fun () -> Daemon.Client.request ctx.clients.(i) r.request))
            in
            answers.(i) <- { req = r; client_ms = dt *. 1e3; outcome } :: answers.(i))
          ctx.lanes.(i))
  in
  let t0 = now () in
  let threads = Array.init connections (fun i -> Thread.create (lane i) ()) in
  Array.iter Thread.join threads;
  let wall_s = now () -. t0 in
  (wall_s, List.concat_map List.rev (Array.to_list answers))

let failures answers =
  List.filter_map
    (fun a ->
      match a.outcome with
      | Error (code, msg) ->
        Some (Printf.sprintf "%s: daemon %s: %s" a.req.label (P.error_code_name code) msg)
      | Ok (payload, _) ->
        if Lazy.force a.req.expected = Some payload then None
        else Some (a.req.label ^ ": payload differs from the expected one"))
    answers

let result ctx ~wall_s answers layers =
  let measure_rows =
    List.concat_map
      (fun a ->
        match (a.req.request, a.outcome) with
        | P.Measure _, Ok (payload, _) -> (
          match Telemetry.Json.parse payload with
          | Ok (Telemetry.Json.Arr rows) -> rows
          | _ -> [])
        | _ -> [])
      answers
  in
  {
    Round.wall_s;
    task_ms = List.map (fun a -> a.client_ms) answers;
    attempted = List.length answers;
    failures = failures answers;
    rows =
      List.sort compare
        (List.map
           (fun a ->
             a.req.label ^ " "
             ^ match a.outcome with Ok (p, _) -> p | Error (c, _) -> P.error_code_name c)
           answers);
    quality = (if measure_rows = [] then [] else Round.quality_of_json measure_rows);
    child_rss_kb = vmhwm_kb ctx.pid;
    layers;
  }

let run ctx =
  let wall_s, answers = drive ctx ~in_lane:(fun _ f -> f ()) ~on_request:(fun _ f -> f ()) in
  result ctx ~wall_s answers []

(* The daemon's supervisor tallies, from its [status] response. *)
let pool_counters ctx =
  let metrics =
    match Daemon.Client.request ctx.clients.(0) P.Status with
    | Ok (payload, _) ->
      Option.bind
        (Result.to_option (Telemetry.Json.parse payload))
        (Telemetry.Json.member "metrics")
    | Error _ -> None
  in
  List.map
    (fun name ->
      let v =
        Option.bind metrics (fun m ->
            Option.bind (Telemetry.Json.member name m) Telemetry.Json.get_int)
      in
      (name, float_of_int (Option.value ~default:0 v)))
    [ "pool.retried"; "pool.respawned"; "pool.abandoned" ]

let traced ctx spans =
  let lane_ids = Array.make connections Spans.no_parent in
  let wall_s, answers =
    drive ctx
      ~in_lane:(fun i f ->
        Spans.with_span spans ~lane:(i + 1) ~parent:Spans.no_parent "lane" (fun id ->
            lane_ids.(i) <- id;
            f ()))
      ~on_request:(fun i f ->
        Spans.with_span spans ~lane:(i + 1) ~parent:lane_ids.(i) "daemon.request" (fun _ ->
            f ()))
  in
  let tbl = Round.table () in
  List.iter
    (fun a ->
      Round.add tbl "daemon.requests" 1.;
      match a.outcome with
      | Ok (_, server_ms) ->
        Round.add tbl "daemon.server_ms" server_ms;
        Round.add tbl "daemon.wait_ms" (a.client_ms -. server_ms)
      | Error ((P.Overloaded | P.Draining), _) -> Round.add tbl "daemon.rejected" 1.
      | Error _ -> Round.add tbl "daemon.errors" 1.)
    answers;
  let _, extra = Round.attribute spans [ "daemon.request" ] in
  result ctx ~wall_s answers (Round.to_list tbl @ pool_counters ctx @ extra)

let close ctx =
  Array.iter (fun c -> try Daemon.Client.close c with _ -> ()) ctx.clients;
  (try Unix.kill ctx.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait_exit ctx.pid ~timeout:15.;
  rm_rf ctx.dir
