(* The fleet workload: shard daemons on Unix sockets behind a
   consistent-hash router, all in this process, driven by an open-loop
   Poisson generator. *)

open Common
module Server = Twq_serve.Server
module Router = Twq_serve.Router
module Client = Twq_serve.Shard_client
module Wire = Twq_serve.Wire
module Tensor = Twq_tensor.Tensor
module Rng = Twq_util.Rng

type fleet = { daemons : Server.daemon list; router : Router.t; rpath : string }

let connect path =
  match Client.connect ~timeout:10. path with
  | Ok c -> c
  | Error e -> failwith (path ^ ": " ^ Client.error_to_string e)

(* Socket paths are relative to the working directory, which keeps them
   under the 108-byte sun_path limit wherever the checkout lives. *)
let sock ~sock_dir name =
  Filename.concat sock_dir (Printf.sprintf "%d-%s.sock" (Unix.getpid ()) name)

(* Artifact on disk → a router that answers and reports every shard
   healthy: per shard [Registry.open_dir] + [Server.listen] (which loads
   and warms the model), then [Router.start]. *)
let start w ~artifacts ~sock_dir =
  let daemons =
    List.init (Models.shard_count w) (fun i ->
        let reg =
          Spans.within "registry.open_dir" (fun () ->
              Closed.open_registry (Models.registry_dir ~artifacts i))
        in
        Spans.within "server.listen" (fun () ->
            Closed.ok_or "listen"
              (Server.listen ~config:(Closed.server_config w) ~registry:reg
                 ~path:(sock ~sock_dir (Printf.sprintf "s%d" i))
                 ())))
  in
  let rpath = sock ~sock_dir "router" in
  let router =
    Spans.within "router.start" (fun () ->
        Closed.ok_or "router"
          (Router.start ~shards:(List.map Server.daemon_path daemons)
             ~path:rpath ()))
  in
  Spans.within "router.ready" (fun () ->
      let c = connect rpath in
      (match Client.ping c with
      | Ok _ -> ()
      | Error e -> failwith ("router ping: " ^ Client.error_to_string e));
      Client.close c;
      while
        not
          (List.for_all
             (fun (_, h) -> h = Router.Healthy)
             (Router.shard_health router))
      do
        Thread.delay 0.0005
      done);
  { daemons; router; rpath }

let stop f =
  Router.stop f.router;
  List.iter Server.stop_daemon f.daemons

(* Per-request instants of an open-loop phase. *)
type sample = {
  mutable due : float;  (** scheduled arrival, absolute *)
  mutable sent : float;
  mutable finished : float;
  mutable cpu_done : float;  (** process CPU seconds at completion *)
  mutable woke_late : float;
      (** generator oversleep past [due]; 0 when the request waited for a
          busy connection instead *)
  mutable result : (Client.infer_reply, Client.error) result option;
}

(* Arrival offsets of a Poisson process at [rate] for [seconds]. *)
let schedule ~rate ~seconds ~seed =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let rng = Rng.create (7919 * (seed + 1)) in
  let acc = ref 0. in
  Array.init n (fun _ ->
      (* 53-bit uniform in (0, 1]. *)
      let u =
        (Int64.to_float (Int64.shift_right_logical (Rng.int64 rng) 11) +. 1.)
        /. 9007199254740992.
      in
      acc := !acc -. (log u /. rate);
      !acc)

let rec sleep_until t =
  let d = t -. now () in
  if d > 0. then begin
    Thread.delay d;
    sleep_until t
  end

(* Send request [i] of the schedule at its due time on connection [c]. *)
let send c ~path ~(inputs : Tensor.t array) ~deadline ~id s =
  let free = now () in
  if s.due > free then sleep_until s.due;
  s.sent <- now ();
  if s.due > free then s.woke_late <- s.sent -. s.due;
  let r =
    Client.infer ~deadline ~key:(Printf.sprintf "req-%d" id) !c
      inputs.(id mod Array.length inputs)
  in
  s.finished <- now ();
  s.cpu_done <- cpu_seconds ();
  s.result <- Some r;
  match r with
  | Error _ ->
      Client.close !c;
      c := connect path
  | Ok _ -> ()

(* Fold the samples into the tally and records; spans are laid out from
   the measured instants and the shard-reported phase durations. *)
let to_phase samples ~pool ~first_id ~(tally : tally) ~window =
  let qws = ref [] and svcs = ref [] in
  let records =
    Array.to_list
      (Array.mapi
         (fun i s ->
           let id = first_id + i in
           tally.sent <- tally.sent + 1;
           let parent = Spans.record ~req:id "request" s.due s.finished in
           if s.sent > s.due then
             ignore (Spans.record ~parent ~req:id "generator.wait" s.due s.sent);
           let infer =
             Spans.record ~parent ~req:id "client.infer" s.sent s.finished
           in
           let logits =
             match s.result with
             | Some
                 (Ok
                   {
                     Client.outcome = Wire.Logits { queue_wait; service; data };
                     wire_latency;
                   }) ->
                 qws := queue_wait :: !qws;
                 svcs := service :: !svcs;
                 let t_in =
                   s.sent +. ((wire_latency -. queue_wait -. service) /. 2.)
                 in
                 ignore
                   (Spans.record ~parent:infer ~req:id "shard.queue_wait" t_in
                      (t_in +. queue_wait));
                 ignore
                   (Spans.record ~parent:infer ~req:id "shard.service"
                      (t_in +. queue_wait)
                      (t_in +. queue_wait +. service));
                 Some data
             | Some (Ok { Client.outcome = Wire.Overloaded; _ }) ->
                 tally.overloaded <- tally.overloaded + 1;
                 None
             | Some (Ok { Client.outcome = Wire.Expired; _ }) ->
                 tally.expired <- tally.expired + 1;
                 None
             | Some (Ok _) ->
                 tally.other <- tally.other + 1;
                 None
             | Some (Error _) | None ->
                 tally.lost <- tally.lost + 1;
                 None
           in
           { input = id mod pool; latency = s.finished -. s.due; logits })
         samples)
  in
  (* Throughput counts completed images only: replies that carry logits. *)
  let marks =
    Array.of_list
      (List.filter_map
         (fun s ->
           match s.result with
           | Some (Ok { Client.outcome = Wire.Logits _; _ }) ->
               Some (s.finished, s.cpu_done)
           | _ -> None)
         (Array.to_list samples))
  in
  Array.sort compare marks;
  {
    records;
    marks;
    window;
    queue_waits = Array.of_list !qws;
    services = Array.of_list !svcs;
    send_late = Array.map (fun s -> Float.max 0. (s.sent -. s.due)) samples;
    woke_late =
      Array.of_list
        (List.filter_map
           (fun s -> if s.woke_late > 0. then Some s.woke_late else None)
           (Array.to_list samples));
  }

(* Poisson arrivals at [rate] for [seconds] from [conns] connection
   threads in a domain of their own, so the generator never waits for the
   runtime lock of the domain running the router and shard threads.
   Latency is charged from each request's scheduled arrival. *)
let open_loop ~path ~(inputs : Tensor.t array) ~rate ~seconds ~seed ~conns
    ~deadline ~first_id ~tally =
  let offsets = schedule ~rate ~seconds ~seed in
  let samples =
    Array.map
      (fun _ ->
        {
          due = 0.;
          sent = 0.;
          finished = 0.;
          cpu_done = 0.;
          woke_late = 0.;
          result = None;
        })
      offsets
  in
  let n = Array.length samples in
  let next = Atomic.make 0 in
  let t0 = now () +. 0.02 in
  let client () =
    let c = ref (connect path) in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        samples.(i).due <- t0 +. offsets.(i);
        send c ~path ~inputs ~deadline ~id:(first_id + i) samples.(i);
        loop ()
      end
    in
    loop ();
    Client.close !c
  in
  Domain.join
    (Domain.spawn (fun () ->
         List.iter Thread.join (List.init conns (fun _ -> Thread.create client ()))));
  (* About one second of arrivals per window. *)
  to_phase samples ~pool:(Array.length inputs) ~first_id ~tally
    ~window:(max 10 (int_of_float rate))

(* Sequential requests on one connection, at least 15 over at least 1 s:
   the client-measured round trip minus the shard-reported queue wait and
   service, per request. *)
let wire_overheads ~path ~(inputs : Tensor.t array) =
  let c = connect path in
  let out = ref [] in
  let t_begin = now () in
  let i = ref 0 in
  while (List.length !out < 15 || now () -. t_begin < 1.0) && !i < 1500 do
    (match
       Spans.within "client.infer" (fun () ->
           Client.infer ~key:(Printf.sprintf "wire-%d" !i) c
             inputs.(!i mod Array.length inputs))
     with
    | Ok { Client.outcome = Wire.Logits { queue_wait; service; _ }; wire_latency } ->
        out := (wire_latency -. queue_wait -. service) :: !out
    | Ok _ -> ()
    | Error e -> failwith ("wire probe: " ^ Client.error_to_string e));
    incr i
  done;
  Client.close c;
  Array.of_list !out
