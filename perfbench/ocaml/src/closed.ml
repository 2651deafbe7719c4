(* In-process serving for the r20-* workloads: cold start from the
   published artifact and a closed-loop load generator. *)

open Common
module Registry = Twq_serve.Registry
module Server = Twq_serve.Server
module Tensor = Twq_tensor.Tensor

let server_config (w : Models.workload) =
  { Server.default_config with Server.max_batch = w.Models.max_batch; workers = 1 }

let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let open_registry dir =
  ok_or "registry"
    (Result.map_error Registry.error_to_string (Registry.open_dir dir))

let resolve reg =
  ok_or "resolve"
    (Result.map_error Registry.error_to_string
       (Registry.resolve reg Models.model_name))

(* Artifact on disk → ready server: [Registry.open_dir] (CRC check,
   [Int_graph.of_string], [Tapwise.pack]), then [Server.start], which warms
   the plans of every batch size before it accepts traffic. *)
let cold_start w ~artifacts =
  let reg =
    Spans.within "registry.open_dir" (fun () ->
        open_registry (Models.registry_dir ~artifacts 0))
  in
  let entry = resolve reg in
  let server =
    Spans.within "server.start" (fun () ->
        Server.for_model ~config:(server_config w) entry.Registry.model
          ~input_dims:entry.Registry.input_dims ())
  in
  (entry, server)

(* Closed loop from one client thread: keep [outstanding] requests in
   flight with [Server.submit]/[await], resubmitting on every completion
   until [seconds] have passed, then drain. *)
let closed_loop ~server ~(inputs : Tensor.t array) ~outstanding ~seconds
    ~(tally : tally) ~first_id =
  let pool = Array.length inputs in
  let q = Queue.create () in
  let id = ref first_id in
  let submit () =
    let i = !id in
    incr id;
    tally.sent <- tally.sent + 1;
    let ts = now () in
    Queue.push (i, ts, Server.submit server inputs.(i mod pool)) q
  in
  let records = ref [] and marks = ref [] and qws = ref [] and svcs = ref [] in
  let t0 = now () in
  for _ = 1 to outstanding do
    submit ()
  done;
  while not (Queue.is_empty q) do
    let i, ts, ticket = Queue.pop q in
    let outcome = Server.await ticket in
    let te = now () in
    let logits =
      match outcome with
      | Server.Output row ->
          (* Throughput counts completed images only. *)
          marks := (te, cpu_seconds ()) :: !marks;
          Some row.Tensor.data
      | Server.Rejected_overload ->
          tally.overloaded <- tally.overloaded + 1;
          None
      | Server.Deadline_expired ->
          tally.expired <- tally.expired + 1;
          None
      | Server.Rejected_invalid _ | Server.Rejected_closed | Server.Failed _ ->
          tally.other <- tally.other + 1;
          None
    in
    records := { input = i mod pool; latency = te -. ts; logits } :: !records;
    let parent = Spans.record ~req:i "request" ts te in
    (match Server.timings ticket with
    | Some (qw, svc) ->
        qws := qw :: !qws;
        svcs := svc :: !svcs;
        ignore (Spans.record ~parent ~req:i "server.queue_wait" ts (ts +. qw));
        ignore
          (Spans.record ~parent ~req:i "server.service" (ts +. qw)
             (ts +. qw +. svc))
    | None -> ());
    if te -. t0 < seconds then submit ()
  done;
  {
    records = !records;
    marks = Array.of_list (List.rev !marks);
    (* Two batch cycles per window. *)
    window = 2 * outstanding;
    queue_waits = Array.of_list !qws;
    services = Array.of_list !svcs;
    send_late = [||];
    woke_late = [||];
  }
