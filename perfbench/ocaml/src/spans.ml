(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code around the calls it
   makes into each layer; nothing inside the program is instrumented.
   Disarmed, a probe costs one [Atomic.get]. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request id, -1 outside requests *)
  name : string;
  start : float;  (** monotonic seconds *)
  stop : float;
}

let armed = Atomic.make false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : span list ref = ref []

let arm () = Atomic.set armed true
let disarm () = Atomic.set armed false

let add s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* Record a span whose bounds were measured elsewhere; returns its id. *)
let record ?(parent = 0) ~req name start stop =
  if not (Atomic.get armed) then 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    add { id; parent; req; name; start; stop };
    id
  end

(* [within name f] runs [f ()] inside a root span. *)
let within name f =
  if not (Atomic.get armed) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let start = Common.now () in
    let r = f () in
    add { id; parent = 0; req = -1; name; start; stop = Common.now () };
    r
  end

let all () =
  Mutex.lock lock;
  let l = List.rev !recorded in
  Mutex.unlock lock;
  l

(* Per span name: count, median duration and total self time (duration
   minus the part its children cover), in ms. *)
let summary spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self =
        d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      let ds, selfs =
        Option.value ~default:([], 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (d :: ds, selfs +. self))
    spans;
  Hashtbl.fold
    (fun name (ds, self) acc ->
      let ds = Array.of_list ds in
      (name, Array.length ds, 1e3 *. Common.median ds, 1e3 *. self) :: acc)
    by_name []
  |> List.sort compare

(* Chrome trace-event JSON (open in Perfetto or chrome://tracing): one
   complete event per span, one track per request. *)
let write_chrome path spans =
  let t0 =
    List.fold_left (fun m s -> Float.min m s.start) Float.infinity spans
  in
  let ev s =
    Common.Obj
      [
        ("name", Common.Str s.name);
        ("ph", Common.Str "X");
        ("pid", Common.Int 1);
        ("tid", Common.Int (max 0 s.req));
        ("ts", Common.Num (1e6 *. (s.start -. t0)));
        ("dur", Common.Num (1e6 *. (s.stop -. s.start)));
        ( "args",
          Common.Obj
            [
              ("id", Common.Int s.id);
              ("parent", Common.Int s.parent);
              ("req", Common.Int s.req);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Common.json_to_string
           (Common.Obj
              [
                ("traceEvents", Common.Arr (List.map ev spans));
                ("displayTimeUnit", Common.Str "ms");
              ]));
      output_char oc '\n')
