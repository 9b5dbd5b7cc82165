(* The traced run's span recorder: (name, start, end, parent) spans kept
   in memory, reduced to per-name self times, and written out at exit as
   a Chrome/Perfetto trace through [Telemetry.Trace].  Spans are recorded
   only by the benchmark's own code, around its calls into each layer. *)

type span = { id : int; name : string; parent : int; lane : int; t0 : float; t1 : float }

type t = {
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;
  origin : float;
}

let no_parent = -1
let create () = { mu = Mutex.create (); next = 0; spans = []; origin = Util.now () }

(* [with_span t ~parent name f] runs [f id] under a span whose id is
   reserved up front, so [f] can open children under it. *)
let with_span t ?(lane = 0) ~parent name f =
  Mutex.lock t.mu;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.mu;
  let t0 = Util.now () in
  let finish () =
    let t1 = Util.now () in
    Mutex.lock t.mu;
    t.spans <- { id; name; parent; lane; t0; t1 } :: t.spans;
    Mutex.unlock t.mu
  in
  Fun.protect ~finally:finish (fun () -> f id)

let dur_ms s = (s.t1 -. s.t0) *. 1e3

(* Self time per span name: each span's duration minus what its children
   cover, summed by name, in ms. *)
let self_ms t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> no_parent then
        Hashtbl.replace child s.parent
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur_ms s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    t.spans;
  by_name

(* Total duration of the top-level spans, in ms: the wall-clock time the
   trace accounts for (summed over lanes when lanes overlap). *)
let root_ms t =
  List.fold_left
    (fun acc s -> if s.parent = no_parent then acc +. dur_ms s else acc)
    0. t.spans

let write t path =
  let tr = Telemetry.Trace.create () in
  Telemetry.Trace.process_name tr "perfbench";
  List.iter
    (fun s ->
      Telemetry.Trace.complete tr ~tid:s.lane ~name:s.name
        ~args:
          [ ("id", Telemetry.Json.Int s.id); ("parent", Telemetry.Json.Int s.parent) ]
        ~ts_us:((s.t0 -. t.origin) *. 1e6)
        ~dur_us:((s.t1 -. s.t0) *. 1e6) ())
    (List.rev t.spans);
  Out_channel.with_open_bin path (fun oc -> Telemetry.Trace.write tr oc)
