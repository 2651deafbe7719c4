(* Inference server: admission-controlled dynamic batcher in front of a
   worker pool of compute domains.

   A request is one image [c; h; w]; the batcher coalesces up to
   [max_batch] of them (waiting at most [max_delay] for stragglers) into
   one [n; c; h; w] batch, the worker runs the model once, and each
   request gets its own logits row back.  Because every model op is
   per-sample independent, the row a request receives is bit-identical to
   what a batch-of-1 run would have produced — the qcheck property in
   test/test_serve.ml pins this.

   Worker-pool / domain-pool interaction: with [workers = 1] the single
   compute worker may freely use the global [Parallel] domain pool inside
   kernels (intra-batch parallelism).  With [workers > 1] each batch runs
   under [Parallel.sequential] instead — the pool executes one job at a
   time, so concurrent workers must not submit to it; they provide
   inter-batch parallelism themselves.  Either way results are
   bit-identical (PR 1's seq/par equality).

   Nothing here raises across the API: overload, expired deadlines,
   malformed inputs, post-shutdown submits and even exceptions escaping
   the model all turn into typed per-request outcomes. *)

module Tensor = Twq_tensor.Tensor
module Parallel = Twq_util.Parallel
module Mclock = Twq_util.Mclock

type config = {
  max_batch : int;
  max_delay : float; (* seconds the batch window stays open *)
  capacity : int; (* bound on the request queue; excess sheds *)
  workers : int; (* compute worker domains *)
  default_deadline : float option; (* relative seconds, per request *)
}

let default_config =
  {
    max_batch = 8;
    max_delay = 0.002;
    capacity = 64;
    workers = 1;
    default_deadline = None;
  }

type outcome =
  | Output of Tensor.t
  | Rejected_overload
  | Deadline_expired
  | Rejected_invalid of string
  | Rejected_closed
  | Failed of string

let outcome_label = function
  | Output _ -> "output"
  | Rejected_overload -> "rejected-overload"
  | Deadline_expired -> "deadline-expired"
  | Rejected_invalid _ -> "rejected-invalid"
  | Rejected_closed -> "rejected-closed"
  | Failed _ -> "failed"

type ticket = {
  input : Tensor.t;
  submitted : float;
  deadline : float option; (* absolute *)
  cell_mutex : Mutex.t;
  cell_cond : Condition.t;
  mutable cell : outcome option;
  mutable dispatched : float; (* 0. until picked into a batch *)
  mutable completed_at : float; (* 0. until completed *)
}

type t = {
  config : config;
  resolve : unit -> Model.t;
  input_dims : int array; (* [| c; h; w |] *)
  numel : int;
  batcher : ticket Batcher.t;
  metrics : Metrics.t;
  mutable warmed : Model.t option; (* last model whose plans were warmed *)
  mutable domains : unit Domain.t list;
  mutable stopped : bool;
  stop_mutex : Mutex.t;
}

(* All ticket timestamps are differences of monotonic readings; a wall
   clock stepped by NTP mid-request would corrupt deadlines and the
   latency histograms. *)
let now = Mclock.now

let complete t ticket outcome =
  (match outcome with
  | Output _ ->
      Metrics.Counter.incr t.metrics.Metrics.completed;
      Metrics.Histogram.observe t.metrics.Metrics.total_latency
        (now () -. ticket.submitted)
  | Rejected_overload -> Metrics.Counter.incr t.metrics.Metrics.rejected_overload
  | Deadline_expired -> Metrics.Counter.incr t.metrics.Metrics.deadline_expired
  | Rejected_invalid _ -> Metrics.Counter.incr t.metrics.Metrics.rejected_invalid
  | Rejected_closed -> Metrics.Counter.incr t.metrics.Metrics.rejected_closed
  | Failed _ -> Metrics.Counter.incr t.metrics.Metrics.failed);
  ticket.completed_at <- now ();
  Mutex.lock ticket.cell_mutex;
  if ticket.cell = None then ticket.cell <- Some outcome;
  Condition.broadcast ticket.cell_cond;
  Mutex.unlock ticket.cell_mutex

(* [staging.(n - 1)] is this worker's input tensor for batches of [n],
   allocated on first use and reused for every later batch of that size.
   A fresh tensor per batch would be a major-heap allocation (one image
   is above the minor-heap size limit), and the major GC barely advances
   while clients idle in [await], so the heap would grow with every
   request served. *)
let staging_for t staging n =
  match staging.(n - 1) with
  | Some xb -> xb
  | None ->
      let xb =
        Tensor.zeros
          [| n; t.input_dims.(0); t.input_dims.(1); t.input_dims.(2) |]
      in
      staging.(n - 1) <- Some xb;
      xb

let run_batch t staging tickets ~opened =
  let dispatch = now () in
  let m = t.metrics in
  List.iter
    (fun ticket ->
      ticket.dispatched <- dispatch;
      Metrics.Histogram.observe m.Metrics.queue_wait
        (dispatch -. ticket.submitted))
    tickets;
  Metrics.Gauge.set m.Metrics.queue_depth (Batcher.length t.batcher);
  (* Split expired requests out before paying for their compute. *)
  let live, dead =
    List.partition
      (fun ticket ->
        match ticket.deadline with None -> true | Some d -> dispatch <= d)
      tickets
  in
  List.iter (fun ticket -> complete t ticket Deadline_expired) dead;
  if live <> [] then begin
    let n = List.length live in
    Metrics.Gauge.incr m.Metrics.in_flight;
    Metrics.Counter.incr m.Metrics.batches;
    Metrics.Counter.add m.Metrics.images n;
    Metrics.Histogram.observe m.Metrics.batch_size (float_of_int n *. 1e-9);
    Metrics.Histogram.observe m.Metrics.batch_assembly (dispatch -. opened);
    match
      let xb = staging_for t staging n in
      List.iteri
        (fun i ticket ->
          Array.blit ticket.input.Tensor.data 0 xb.Tensor.data (i * t.numel)
            t.numel)
        live;
      let model = t.resolve () in
      (* A hot-swapped artifact arrives with packed weights but no
         compiled plans yet; warm every servable batch size once so
         only the first post-swap batch pays the (cheap) planning. *)
      (match t.warmed with
      | Some m when m == model -> ()
      | _ ->
          Model.warm model ~input_dims:t.input_dims
            ~batch_sizes:(List.init t.config.max_batch (fun i -> i + 1));
          t.warmed <- Some model);
      (* Allocation accounting runs on this worker domain.
         [Gc.minor_words] is the per-domain allocation clock —
         [Gc.quick_stat].minor_words only advances at minor
         collections on spawned domains, so it would read 0 for
         forwards that never fill the nursery. *)
      let m0 = Gc.minor_words () in
      let g0 = Gc.quick_stat () in
      let y =
        if t.config.workers = 1 then Model.run_batch model xb
        else Parallel.sequential (fun () -> Model.run_batch model xb)
      in
      let g1 = Gc.quick_stat () in
      Metrics.Counter.add m.Metrics.alloc_minor_words
        (int_of_float (Gc.minor_words () -. m0));
      Metrics.Counter.add m.Metrics.alloc_major_words
        (int_of_float (g1.Gc.major_words -. g0.Gc.major_words));
      if Tensor.rank y <> 2 || Tensor.dim y 0 <> n then
        failwith "model returned a non-[n; classes] output";
      y
    with
    | exception e ->
        Metrics.Gauge.decr m.Metrics.in_flight;
        let msg = Printexc.to_string e in
        List.iter (fun ticket -> complete t ticket (Failed msg)) live
    | y ->
        Metrics.Histogram.observe m.Metrics.compute (now () -. dispatch);
        Metrics.Gauge.decr m.Metrics.in_flight;
        let classes = Tensor.dim y 1 in
        List.iteri
          (fun i ticket ->
            let row = Tensor.zeros [| classes |] in
            Array.blit y.Tensor.data (i * classes) row.Tensor.data 0 classes;
            complete t ticket (Output row))
          live
  end

let worker t () =
  let staging = Array.make t.config.max_batch None in
  let rec loop () =
    match Batcher.next_batch t.batcher with
    | None -> ()
    | Some (tickets, opened) ->
        run_batch t staging tickets ~opened;
        loop ()
  in
  loop ()

let start ?(config = default_config) ~model ~input_dims () =
  if Array.length input_dims <> 3 || Array.exists (fun d -> d <= 0) input_dims
  then invalid_arg "Server.start: input_dims must be [| c; h; w |] > 0";
  if config.workers < 1 then invalid_arg "Server.start: workers < 1";
  let t =
    {
      config;
      resolve = model;
      input_dims = Array.copy input_dims;
      numel = input_dims.(0) * input_dims.(1) * input_dims.(2);
      batcher =
        Batcher.create ~capacity:config.capacity ~max_batch:config.max_batch
          ~max_delay:config.max_delay ();
      metrics = Metrics.create ();
      warmed = None;
      domains = [];
      stopped = false;
      stop_mutex = Mutex.create ();
    }
  in
  (* Plan-aware serving: compile the initial model's plans for every
     batch size the batcher can emit before accepting traffic. *)
  (let m = model () in
   Model.warm m ~input_dims
     ~batch_sizes:(List.init config.max_batch (fun i -> i + 1));
   t.warmed <- Some m);
  (* The OCaml 5.1 runtime can keep a domain's start closure reachable
     for a moment after [Domain.join] has returned.  A closure holding
     [t] then often makes a [Gc.full_major] right after [shutdown] leave
     the server and its model in the heap (freed a cycle later), so a
     cold start right after a shutdown holds two models.  Each worker
     gets [t] through a cell it empties as it starts, so the start
     closure holds nothing. *)
  t.domains <-
    List.init config.workers (fun _ ->
        let cell = ref (Some t) in
        Domain.spawn (fun () ->
            match !cell with
            | Some t ->
                cell := None;
                worker t ()
            | None -> ()));
  t

let for_model ?config model ~input_dims () =
  start ?config ~model:(fun () -> model) ~input_dims ()

let valid_shape t x =
  Tensor.rank x = 3
  && Tensor.dim x 0 = t.input_dims.(0)
  && Tensor.dim x 1 = t.input_dims.(1)
  && Tensor.dim x 2 = t.input_dims.(2)

let submit ?deadline t x =
  let submitted = now () in
  let rel =
    match deadline with Some _ -> deadline | None -> t.config.default_deadline
  in
  let ticket =
    {
      input = x;
      submitted;
      deadline = Option.map (fun d -> submitted +. d) rel;
      cell_mutex = Mutex.create ();
      cell_cond = Condition.create ();
      cell = None;
      dispatched = 0.0;
      completed_at = 0.0;
    }
  in
  if not (valid_shape t x) then begin
    let got =
      String.concat "x"
        (List.init (Tensor.rank x) (fun i -> string_of_int (Tensor.dim x i)))
    in
    complete t ticket
      (Rejected_invalid
         (Printf.sprintf "input shape %s, expected %dx%dx%d" got
            t.input_dims.(0) t.input_dims.(1) t.input_dims.(2)))
  end
  else if (match rel with Some r -> r <= 0.0 | None -> false) then begin
    (* The budget arrived already spent (upstream queueing ate it all);
       reject at admission instead of batching doomed work. *)
    Metrics.Counter.incr t.metrics.Metrics.deadline_rejected;
    complete t ticket Deadline_expired
  end
  else begin
    Metrics.Counter.incr t.metrics.Metrics.accepted;
    match Batcher.submit t.batcher ticket with
    | Batcher.Accepted ->
        Metrics.Gauge.set t.metrics.Metrics.queue_depth
          (Batcher.length t.batcher)
    | Batcher.Overloaded -> complete t ticket Rejected_overload
    | Batcher.Closed -> complete t ticket Rejected_closed
  end;
  ticket

let await ticket =
  Mutex.lock ticket.cell_mutex;
  while ticket.cell = None do
    Condition.wait ticket.cell_cond ticket.cell_mutex
  done;
  let r = Option.get ticket.cell in
  Mutex.unlock ticket.cell_mutex;
  r

let peek ticket =
  Mutex.lock ticket.cell_mutex;
  let r = ticket.cell in
  Mutex.unlock ticket.cell_mutex;
  r

let infer ?deadline t x = await (submit ?deadline t x)
let metrics t = t.metrics
let queue_depth t = Batcher.length t.batcher
let config t = t.config

let shutdown t =
  Mutex.lock t.stop_mutex;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.stop_mutex;
  if not already then begin
    (* Close admission; workers drain the remaining queue, see [None],
       and exit — every accepted ticket still gets a real outcome. *)
    Batcher.shutdown t.batcher;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let timings ticket =
  if ticket.dispatched > 0.0 && ticket.completed_at > 0.0 then
    Some
      ( ticket.dispatched -. ticket.submitted,
        ticket.completed_at -. ticket.dispatched )
  else None

(* ------------------------------------------------------------------ *)
(* Wire daemon: the server above, exposed on a Unix-domain socket
   through [Listener].  Its handler threads block in [await] while the
   compute domains work, so the dynamic batcher coalesces requests
   across connections exactly as it does across in-process submitters.

   The daemon serves one model at a time out of a Registry directory.
   [Publish] only stages an artifact; serving changes when [Activate]
   flips the registry's active pointer (two-phase fleet publish).
   Whenever the daemon starts serving an entry it pins that version as
   active, so a staged-but-not-activated newer version never serves
   early.  If activation changes the input dims the server is restarted;
   same-dims flips just swap the resolver's entry between batches. *)

type serving = {
  s_entry : Registry.entry ref; (* resolver reads this between batches *)
  s_server : t;
}

type daemon = {
  d_registry : Registry.t;
  d_config : config;
  d_listener : Listener.t;
  d_mutex : Mutex.t;
  d_swap : Mutex.t; (* serializes Activate-driven server swaps *)
  mutable d_serving : serving option;
  mutable d_draining : bool;
}

let wire_outcome ticket = function
  | Output row ->
      let queue_wait, service =
        match timings ticket with Some qs -> qs | None -> (0.0, 0.0)
      in
      Wire.Logits { queue_wait; service; data = row.Tensor.data }
  | Rejected_overload -> Wire.Overloaded
  | Deadline_expired -> Wire.Expired
  | Rejected_invalid m -> Wire.Invalid m
  | Rejected_closed -> Wire.Closed
  | Failed m -> Wire.Failed m

let start_serving d entry =
  let s_entry = ref entry in
  let server =
    start ~config:d.d_config
      ~model:(fun () -> !s_entry.Registry.model)
      ~input_dims:entry.Registry.input_dims ()
  in
  (* Pin what we serve so later [Publish] staging cannot shift
     [Registry.resolve] out from under the active pointer. *)
  ignore
    (Registry.activate d.d_registry ~name:entry.Registry.name
       ~version:entry.Registry.version);
  { s_entry; s_server = server }

let snapshot d = Mutex.protect d.d_mutex (fun () -> (d.d_serving, d.d_draining))

let handle_infer d ~deadline ~dims ~data =
  let serving, draining = snapshot d in
  if draining then Wire.Closed
  else
    match serving with
    | None -> Wire.No_model
    | Some s ->
        let numel = Array.fold_left ( * ) 1 dims in
        if
          Array.length dims <> 3
          || Array.exists (fun x -> x <= 0) dims
          || numel <> Array.length data
        then
          Wire.Invalid
            (Printf.sprintf "bad tensor: %d dims, %d elements for %d floats"
               (Array.length dims) numel (Array.length data))
        else begin
          let x = Tensor.zeros dims in
          Array.blit data 0 x.Tensor.data 0 numel;
          let ticket = submit ?deadline s.s_server x in
          wire_outcome ticket (await ticket)
        end

let daemon_stats_json d =
  let serving, draining = snapshot d in
  let serving_json =
    match serving with
    | None -> "null"
    | Some s ->
        let e = !(s.s_entry) in
        Printf.sprintf "{\"name\": %S, \"version\": %d}" e.Registry.name
          e.Registry.version
  in
  Printf.sprintf
    "{\n\
    \  \"serving\": %s,\n\
    \  \"draining\": %b,\n\
    \  \"wire\": %s,\n\
    \  \"server\": %s}\n"
    serving_json draining
    (Listener.stats_json d.d_listener)
    (match serving with
    | None -> "null"
    | Some s -> Metrics.to_json (metrics s.s_server))

(* Same input dims: swap the entry the resolver reads, so the next batch
   picks up the new weights while in-flight batches keep the version they
   resolved.  Otherwise restart the server on the new dims. *)
let swap_to d entry =
  Mutex.lock d.d_mutex;
  match d.d_serving with
  | Some s when !(s.s_entry).Registry.input_dims = entry.Registry.input_dims ->
      s.s_entry := entry;
      Mutex.unlock d.d_mutex
  | previous ->
      d.d_serving <- None;
      Mutex.unlock d.d_mutex;
      Option.iter (fun s -> shutdown s.s_server) previous;
      let s = start_serving d entry in
      Mutex.protect d.d_mutex (fun () -> d.d_serving <- Some s)

let handle_msg d msg =
  match msg with
  | Wire.Infer { key = _; deadline; dims; data } ->
      Wire.Infer_reply (handle_infer d ~deadline ~dims ~data)
  | Wire.Ping ->
      let serving, draining = snapshot d in
      Wire.Pong
        {
          healthy = serving <> None && not draining;
          queue_depth =
            (match serving with
            | Some s -> queue_depth s.s_server
            | None -> 0);
          capacity = d.d_config.capacity;
          draining;
        }
  | Wire.Publish { name; version; input_dims; payload } -> (
      match Model.of_string payload with
      | Error reason -> Wire.Publish_reply { ok = false; reason }
      | Ok model -> (
          match
            Registry.publish d.d_registry ~name ~version ~input_dims model
          with
          | Ok _ -> Wire.Publish_reply { ok = true; reason = "staged" }
          | Error e ->
              Wire.Publish_reply
                { ok = false; reason = Registry.error_to_string e }))
  | Wire.Activate { name; version } -> (
      match
        Result.bind (Registry.activate d.d_registry ~name ~version) (fun () ->
            Registry.lookup ~version d.d_registry name)
      with
      | Error e ->
          Wire.Activate_reply
            { ok = false; reason = Registry.error_to_string e }
      | Ok entry ->
          Mutex.protect d.d_swap (fun () -> swap_to d entry);
          Wire.Activate_reply { ok = true; reason = "active" })
  | Wire.Model_info { name } ->
      let versions =
        match List.assoc_opt name (Registry.names d.d_registry) with
        | Some vs -> vs
        | None -> []
      in
      Wire.Model_info_reply
        { active = Registry.active_version d.d_registry name; versions }
  | Wire.Stats -> Wire.Stats_reply (daemon_stats_json d)
  | Wire.Drain ->
      Mutex.protect d.d_mutex (fun () -> d.d_draining <- true);
      Wire.Drain_reply
  | Wire.Infer_reply _ | Wire.Pong _ | Wire.Publish_reply _
  | Wire.Activate_reply _ | Wire.Model_info_reply _ | Wire.Stats_reply _
  | Wire.Drain_reply | Wire.Nack _ ->
      Wire.Nack "shard expects requests, not replies"

let listen ?(config = default_config) ~registry ~path () =
  Result.map
    (fun l ->
      let d =
        {
          d_registry = registry;
          d_config = config;
          d_listener = l;
          d_mutex = Mutex.create ();
          d_swap = Mutex.create ();
          d_serving = None;
          d_draining = false;
        }
      in
      (* Recovery: a restarted shard has no active pointer on its fresh
         registry handle, so it serves the newest artifact of the first
         name on disk (and re-pins it). *)
      (match Registry.names registry with
      | (name, _) :: _ -> (
          match Registry.resolve registry name with
          | Ok entry -> d.d_serving <- Some (start_serving d entry)
          | Error _ -> ())
      | [] -> ());
      Listener.serve l (handle_msg d);
      d)
    (Listener.bind path)

let daemon_path d = Listener.path d.d_listener

let daemon_draining d = snd (snapshot d)

let teardown d ~abrupt =
  Mutex.protect d.d_mutex (fun () -> d.d_draining <- true);
  Listener.stop d.d_listener ~abrupt;
  (* Every handler has returned, so no Activate can swap a server in. *)
  let serving =
    Mutex.protect d.d_mutex (fun () ->
        let s = d.d_serving in
        d.d_serving <- None;
        s)
  in
  Option.iter (fun s -> shutdown s.s_server) serving

let stop_daemon d = teardown d ~abrupt:false
let kill_daemon d = teardown d ~abrupt:true
let wait_daemon d = Listener.wait d.d_listener
