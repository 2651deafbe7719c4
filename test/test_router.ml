(* Router tests (PR 6): ring properties (determinism, key stability under
   shard add/remove, successor ordering), and end-to-end fleet behavior
   with in-process daemons — routed inference bit-identity, failover on a
   killed shard, heartbeat-driven recovery, backpressure propagation and
   drain. *)

module Tensor = Twq_tensor.Tensor
module Rng = Twq_util.Rng
module Wire = Twq_serve.Wire
module Model = Twq_serve.Model
module Registry = Twq_serve.Registry
module Server = Twq_serve.Server
module Router = Twq_serve.Router
module Shard_client = Twq_serve.Shard_client

(* --------------------------------------------------- ring properties *)

let gen_endpoints =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    return (List.init n (fun i -> Printf.sprintf "/tmp/shard-%d.sock" i)))

let gen_key = QCheck.Gen.(string_size ~gen:printable (int_bound 24))

let prop_ring_deterministic =
  QCheck.Test.make
    ~name:"ring: route independent of construction order" ~count:100
    QCheck.(
      make
        Gen.(
          let* eps = gen_endpoints in
          let* keys = list_size (int_range 1 20) gen_key in
          return (eps, keys)))
    (fun (eps, keys) ->
      let r1 = Router.Ring.create eps in
      let r2 = Router.Ring.create (List.rev eps) in
      List.for_all
        (fun k -> Router.Ring.route r1 k = Router.Ring.route r2 k)
        keys)

let prop_ring_stability =
  QCheck.Test.make
    ~name:"ring: removing a shard only moves that shard's keys" ~count:100
    QCheck.(
      make
        Gen.(
          let* eps = gen_endpoints in
          let* keys = list_size (int_range 1 40) gen_key in
          let* victim = int_bound (List.length eps - 1) in
          return (eps, keys, List.nth eps victim)))
    (fun (eps, keys, victim) ->
      let before = Router.Ring.create eps in
      let after = Router.Ring.remove before victim in
      List.for_all
        (fun k ->
          match (Router.Ring.route before k, Router.Ring.route after k) with
          | Some o, Some o' -> o = victim || o = o'
          | Some o, None -> o = victim (* victim was the only shard *)
          | None, _ -> false)
        keys)

let prop_ring_add_inverse =
  QCheck.Test.make ~name:"ring: add(remove(r, e), e) routes like r"
    ~count:100
    QCheck.(
      make
        Gen.(
          let* eps = gen_endpoints in
          let* keys = list_size (int_range 1 30) gen_key in
          let* i = int_bound (List.length eps - 1) in
          return (eps, keys, List.nth eps i)))
    (fun (eps, keys, e) ->
      let r = Router.Ring.create eps in
      let r' = Router.Ring.add (Router.Ring.remove r e) e in
      List.for_all (fun k -> Router.Ring.route r k = Router.Ring.route r' k) keys)

let prop_ring_successors =
  QCheck.Test.make
    ~name:"ring: successors = all distinct endpoints, starting at owner"
    ~count:100
    QCheck.(
      make
        Gen.(
          let* eps = gen_endpoints in
          let* key = gen_key in
          return (eps, key)))
    (fun (eps, key) ->
      let r = Router.Ring.create eps in
      let succ = Router.Ring.successors r key in
      let distinct = List.sort_uniq compare succ in
      List.length succ = List.length (Router.Ring.endpoints r)
      && List.length distinct = List.length succ
      && Router.Ring.route r key = Some (List.hd succ))

let test_ring_distribution () =
  (* 64 vnodes/shard should keep a 4-shard ring roughly balanced: no
     shard owns more than half of 4000 uniform keys. *)
  let eps = List.init 4 (fun i -> Printf.sprintf "s%d" i) in
  let r = Router.Ring.create eps in
  let counts = Hashtbl.create 4 in
  for i = 0 to 3999 do
    match Router.Ring.route r (Printf.sprintf "key-%d" i) with
    | Some e ->
        Hashtbl.replace counts e (1 + Option.value ~default:0 (Hashtbl.find_opt counts e))
    | None -> Alcotest.fail "empty ring"
  done;
  List.iter
    (fun e ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts e) in
      if n = 0 then Alcotest.failf "shard %s owns no keys" e;
      if n > 2000 then Alcotest.failf "shard %s owns %d/4000 keys" e n)
    eps

let test_ring_empty () =
  let r = Router.Ring.create [] in
  Alcotest.(check (option string)) "route on empty" None (Router.Ring.route r "k");
  Alcotest.(check (list string)) "successors on empty" [] (Router.Ring.successors r "k")

(* --------------------------------------------------- fleet scaffolding *)

let tmp_dir prefix =
  let p = Filename.temp_file prefix "" in
  Sys.remove p;
  Unix.mkdir p 0o755;
  p

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let tmp_sock () =
  let p = Filename.temp_file "twq_rt" ".sock" in
  Sys.remove p;
  p

let make_model ?(res = 8) ?(width_div = 4) ~seed () =
  let rng = Rng.create seed in
  let g = Twq_nn.Passes.fold_bn (Twq_nn.Gmodels.resnet20 ~rng ~width_div ()) in
  let cal = Tensor.rand_gaussian rng [| 2; 3; res; res |] ~mu:0.0 ~sigma:1.0 in
  ( Model.Graph (Twq_nn.Int_graph.quantize g ~calibration:cal ()),
    [| 3; res; res |] )

let the_model, the_dims = make_model ~seed:3 ()

let rand_input seed =
  let rng = Rng.create seed in
  Tensor.rand_gaussian rng the_dims ~mu:0.0 ~sigma:1.0

let reference_row x =
  let c = the_dims.(0) and h = the_dims.(1) and w = the_dims.(2) in
  let x1 = Tensor.zeros [| 1; c; h; w |] in
  Array.blit x.Tensor.data 0 x1.Tensor.data 0 (c * h * w);
  let y = Model.run_batch the_model x1 in
  Array.sub y.Tensor.data 0 (Tensor.dim y 1)

let farr_eq a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* A fleet of [n] shard daemons, each with its own registry dir and the
   model already published+active, plus a router in front.  [f] gets the
   router handle, its socket and the daemons. *)
let with_fleet ?(n = 2) ?shard_config ?(heartbeat = 0.05) f =
  let dirs = List.init n (fun _ -> tmp_dir "twq_fleet") in
  let socks = List.init n (fun _ -> tmp_sock ()) in
  let rsock = tmp_sock () in
  let daemons = ref [] in
  let router = ref None in
  Fun.protect
    ~finally:(fun () ->
      (match !router with Some r -> Router.stop r | None -> ());
      List.iter Server.stop_daemon !daemons;
      List.iter rm_rf dirs;
      List.iter
        (fun s -> if Sys.file_exists s then Sys.remove s)
        (rsock :: socks))
    (fun () ->
      List.iter2
        (fun dir sock ->
          let reg = Result.get_ok (Registry.open_dir dir) in
          (match
             Registry.publish reg ~name:"m" ~version:1 ~input_dims:the_dims
               the_model
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "publish: %s" (Registry.error_to_string e));
          match Server.listen ?config:shard_config ~registry:reg ~path:sock () with
          | Ok d -> daemons := !daemons @ [ d ]
          | Error e -> Alcotest.failf "listen %s: %s" sock e)
        dirs socks;
      let config =
        { Router.default_config with Router.heartbeat_interval = heartbeat }
      in
      match Router.start ~config ~shards:socks ~path:rsock () with
      | Error e -> Alcotest.failf "router: %s" e
      | Ok r ->
          router := Some r;
          (* First heartbeat sweep marks everyone healthy. *)
          Thread.delay 0.2;
          f r ~rsock ~socks ~daemons:!daemons)

let connect sock =
  match Shard_client.connect ~timeout:10.0 sock with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Shard_client.error_to_string e)

let counter r name =
  match List.assoc_opt name (Router.counters r) with
  | Some v -> v
  | None -> Alcotest.failf "no counter %s" name

let infer_via c ~key x =
  match Shard_client.infer ~key c x with
  | Ok { outcome; _ } -> outcome
  | Error e -> Alcotest.failf "infer: %s" (Shard_client.error_to_string e)

(* ----------------------------------------------------- fleet behavior *)

let test_routed_bit_identical () =
  with_fleet (fun r ~rsock ~socks:_ ~daemons:_ ->
      let c = connect rsock in
      Fun.protect
        ~finally:(fun () -> Shard_client.close c)
        (fun () ->
          for i = 0 to 11 do
            let x = rand_input (1000 + i) in
            match infer_via c ~key:(Printf.sprintf "key-%d" i) x with
            | Wire.Logits { data; _ } ->
                Alcotest.(check bool)
                  (Printf.sprintf "req %d bit-identical" i)
                  true
                  (farr_eq data (reference_row x))
            | _ -> Alcotest.failf "req %d: not Logits" i
          done;
          Alcotest.(check int) "all routed" 12 (counter r "routed")))

let test_health_view () =
  with_fleet (fun r ~rsock:_ ~socks ~daemons:_ ->
      List.iter2
        (fun s (s', h) ->
          Alcotest.(check string) "order" s s';
          Alcotest.(check string) "healthy" "healthy" (Router.health_label h))
        socks (Router.shard_health r))

let test_failover_on_killed_shard () =
  (* A long heartbeat interval keeps the health sweep out of the way, so
     requests themselves discover the dead shard mid-exchange — the
     transparent-retry path, not the skip-a-marked-shard path. *)
  with_fleet ~heartbeat:30.0 (fun r ~rsock ~socks:_ ~daemons ->
      (* Let the startup sweep finish before the kill — under suite load
         its thread can start late, and a post-kill sweep would mark the
         victim Dead before any request exercises the retry. *)
      Thread.delay 1.0;
      let c = connect rsock in
      Fun.protect
        ~finally:(fun () -> Shard_client.close c)
        (fun () ->
          (* Kill one daemon abruptly; every key must still be served by
             the survivor, transparently. *)
          Server.kill_daemon (List.hd daemons);
          for i = 0 to 19 do
            let x = rand_input (2000 + i) in
            match infer_via c ~key:(Printf.sprintf "key-%d" i) x with
            | Wire.Logits { data; _ } ->
                Alcotest.(check bool)
                  (Printf.sprintf "req %d survives failover" i)
                  true
                  (farr_eq data (reference_row x))
            | Wire.Unavailable m -> Alcotest.failf "req %d unavailable: %s" i m
            | _ -> Alcotest.failf "req %d: not Logits" i
          done;
          (* Half the ring lived on the dead shard, so some requests must
             have failed over; the dead shard must be marked. *)
          Alcotest.(check bool) "failovers recorded" true (counter r "failovers" > 0);
          Alcotest.(check bool) "unhealthy transition" true
            (counter r "unhealthy_transitions" > 0)))

let test_recovery_after_restart () =
  with_fleet (fun r ~rsock ~socks ~daemons ->
      let victim_sock = List.hd socks in
      Server.kill_daemon (List.hd daemons);
      (* One request forces discovery of the dead shard even before the
         heartbeat notices. *)
      let c = connect rsock in
      Fun.protect
        ~finally:(fun () -> Shard_client.close c)
        (fun () ->
          ignore (infer_via c ~key:"probe" (rand_input 1));
          Thread.delay 0.2;
          Alcotest.(check bool) "victim marked dead" true
            (List.exists
               (fun (s, h) -> s = victim_sock && h = Router.Dead)
               (Router.shard_health r));
          (* Restart the shard on the same socket: a fresh registry dir
             with the model re-published, as a crashed-and-restarted
             process would have. *)
          let dir = tmp_dir "twq_fleet_r" in
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              let reg = Result.get_ok (Registry.open_dir dir) in
              (match
                 Registry.publish reg ~name:"m" ~version:1
                   ~input_dims:the_dims the_model
               with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "republish: %s" (Registry.error_to_string e));
              match Server.listen ~registry:reg ~path:victim_sock () with
              | Error e -> Alcotest.failf "relisten: %s" e
              | Ok d2 ->
                  Fun.protect
                    ~finally:(fun () -> Server.stop_daemon d2)
                    (fun () ->
                      (* Heartbeat (50 ms) should resurrect it. *)
                      let deadline = Unix.gettimeofday () +. 5.0 in
                      let rec wait () =
                        let healthy =
                          List.exists
                            (fun (s, h) ->
                              s = victim_sock && h = Router.Healthy)
                            (Router.shard_health r)
                        in
                        if healthy then ()
                        else if Unix.gettimeofday () > deadline then
                          Alcotest.fail "shard never recovered"
                        else (
                          Thread.delay 0.05;
                          wait ())
                      in
                      wait ();
                      Alcotest.(check bool) "recovery counted" true
                        (counter r "recoveries" > 0);
                      (* And it serves routed traffic again. *)
                      let x = rand_input 77 in
                      match infer_via c ~key:"post-recovery" x with
                      | Wire.Logits { data; _ } ->
                          Alcotest.(check bool) "bit-identical" true
                            (farr_eq data (reference_row x))
                      | _ -> Alcotest.fail "post-recovery infer failed"))))

let test_backpressure_propagation () =
  (* A shard with capacity 1 and batch 1 sheds load as Overloaded; the
     router spills to the other shard, so the client still gets logits —
     and the spill is visible in the counters. *)
  let shard_config =
    {
      Server.default_config with
      Server.capacity = 1;
      max_batch = 1;
      max_delay = 0.02;
    }
  in
  with_fleet ~shard_config (fun r ~rsock ~socks:_ ~daemons:_ ->
      (* A shard overloads only when a third request reaches it while one
         computes and one waits, so the client count must outlast short
         forwards: with the spatial convs on the packed GEMM, 16 clients
         left some runs without a single overload. *)
      let n = 64 in
      let oks = Atomic.make 0 and others = Atomic.make 0 in
      let client i =
        let c = connect rsock in
        Fun.protect
          ~finally:(fun () -> Shard_client.close c)
          (fun () ->
            let x = rand_input (3000 + i) in
            match Shard_client.infer ~key:(Printf.sprintf "k%d" i) c x with
            | Ok { outcome = Wire.Logits _; _ } -> Atomic.incr oks
            | Ok _ | Error _ -> Atomic.incr others)
      in
      let ts = List.init n (fun i -> Thread.create client i) in
      List.iter Thread.join ts;
      Alcotest.(check int) "every request answered" n
        (Atomic.get oks + Atomic.get others);
      Alcotest.(check bool) "most served despite tiny capacity" true
        (Atomic.get oks >= n / 2);
      (* With capacity 1 and 64 concurrent clients, at least one exchange
         must have hit typed backpressure and spilled. *)
      Alcotest.(check bool) "spills recorded" true (counter r "spills" > 0))

let test_drained_fleet_unavailable () =
  with_fleet ~n:1 (fun _r ~rsock ~socks ~daemons:_ ->
      (* Drain the only shard directly, wait for the heartbeat to see it,
         then routed infers must come back typed, not hang. *)
      let sc = connect (List.hd socks) in
      (match Shard_client.drain sc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "drain: %s" (Shard_client.error_to_string e));
      Shard_client.close sc;
      Thread.delay 0.3;
      let c = connect rsock in
      Fun.protect
        ~finally:(fun () -> Shard_client.close c)
        (fun () ->
          match infer_via c ~key:"k" (rand_input 5) with
          | Wire.Unavailable _ | Wire.Closed -> ()
          | Wire.Logits _ -> Alcotest.fail "drained shard served traffic"
          | _ -> Alcotest.fail "unexpected outcome"))

let test_router_ping_and_stats () =
  with_fleet (fun _r ~rsock ~socks:_ ~daemons:_ ->
      let c = connect rsock in
      Fun.protect
        ~finally:(fun () -> Shard_client.close c)
        (fun () ->
          (match Shard_client.ping c with
          | Ok (Wire.Pong { healthy; _ }) ->
              Alcotest.(check bool) "router healthy" true healthy
          | Ok _ -> Alcotest.fail "expected Pong"
          | Error e -> Alcotest.failf "ping: %s" (Shard_client.error_to_string e));
          (match Shard_client.stats c with
          | Ok json ->
              Alcotest.(check bool) "stats is json" true
                (String.length json > 0 && json.[0] = '{')
          | Error e -> Alcotest.failf "stats: %s" (Shard_client.error_to_string e));
          (* Publish/activate must be refused by the router: fleet
             publishes go shard-direct. *)
          match Shard_client.activate c ~name:"m" ~version:1 with
          | Error (Shard_client.Remote _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Shard_client.error_to_string e)
          | Ok () -> Alcotest.fail "router accepted activate"))

(* ------------------------------------------------------- fleet publish *)

let test_fleet_publish_v2 () =
  with_fleet (fun _r ~rsock ~socks ~daemons:_ ->
      let model2, dims2 = make_model ~seed:9 () in
      (match
         Registry.publish_fleet ~endpoints:socks ~name:"m" ~version:2
           ~input_dims:dims2 model2
       with
      | Error e -> Alcotest.failf "publish_fleet: %s" (Registry.error_to_string e)
      | Ok o ->
          Alcotest.(check bool) "committed" true o.Registry.committed;
          List.iter
            (fun rep ->
              Alcotest.(check bool)
                (rep.Registry.endpoint ^ " activated")
                true rep.Registry.activated;
              Alcotest.(check (option int))
                (rep.Registry.endpoint ^ " previous")
                (Some 1) rep.Registry.previous)
            o.Registry.reports);
      (* Every shard now reports v2 active, and routed traffic gets v2's
         logits (bit-identical to running model2 directly). *)
      List.iter
        (fun s ->
          let c = connect s in
          (match Shard_client.model_info c ~name:"m" with
          | Ok (active, versions) ->
              Alcotest.(check (option int)) (s ^ " active") (Some 2) active;
              Alcotest.(check (list int)) (s ^ " versions") [ 1; 2 ]
                (List.sort compare versions)
          | Error e ->
              Alcotest.failf "model_info: %s" (Shard_client.error_to_string e));
          Shard_client.close c)
        socks;
      let c = connect rsock in
      Fun.protect
        ~finally:(fun () -> Shard_client.close c)
        (fun () ->
          let x = rand_input 42 in
          let c2 = the_dims.(0) and h = the_dims.(1) and w = the_dims.(2) in
          let x1 = Tensor.zeros [| 1; c2; h; w |] in
          Array.blit x.Tensor.data 0 x1.Tensor.data 0 (c2 * h * w);
          let y = Model.run_batch model2 x1 in
          let expect = Array.sub y.Tensor.data 0 (Tensor.dim y 1) in
          match infer_via c ~key:"v2" x with
          | Wire.Logits { data; _ } ->
              Alcotest.(check bool) "serves v2 bits" true (farr_eq data expect)
          | _ -> Alcotest.fail "not Logits"))

(* A wire-speaking fake shard that stages fine but refuses to activate:
   the fleet publish must abort and roll the healthy shard back. *)
let start_sabot_shard sock =
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX sock);
  Unix.listen listener 8;
  let stop = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ listener ] [] [] 0.1 with
          | [], _, _ -> ()
          | _ ->
              let fd, _ = Unix.accept listener in
              let d = Wire.decoder () in
              let rec serve () =
                match Wire.read_frame fd d with
                | Error _ -> ()
                | Ok (id, msg) ->
                    let reply =
                      match msg with
                      | Wire.Publish _ ->
                          Wire.Publish_reply { ok = true; reason = "" }
                      | Wire.Activate _ ->
                          Wire.Activate_reply
                            { ok = false; reason = "sabotage: refusing flip" }
                      | Wire.Model_info _ ->
                          Wire.Model_info_reply
                            { active = Some 1; versions = [ 1 ] }
                      | Wire.Ping ->
                          Wire.Pong
                            {
                              healthy = true;
                              queue_depth = 0;
                              capacity = 1;
                              draining = false;
                            }
                      | _ -> Wire.Nack "sabot shard"
                    in
                    (try Wire.write_frame fd ~id reply with _ -> ());
                    serve ()
              in
              serve ();
              (try Unix.close fd with Unix.Unix_error _ -> ())
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join t;
    (try Unix.close listener with Unix.Unix_error _ -> ());
    if Sys.file_exists sock then Sys.remove sock

let test_fleet_publish_rollback () =
  with_fleet ~n:1 (fun _r ~rsock:_ ~socks ~daemons:_ ->
      let real = List.hd socks in
      let sabot = tmp_sock () in
      let stop_sabot = start_sabot_shard sabot in
      Fun.protect ~finally:stop_sabot (fun () ->
          let model2, dims2 = make_model ~seed:9 () in
          (* Real shard first: it stages and activates v2, then the sabot
             shard refuses, so the real shard must be rolled back to 1. *)
          match
            Registry.publish_fleet
              ~endpoints:[ real; sabot ]
              ~name:"m" ~version:2 ~input_dims:dims2 model2
          with
          | Error e ->
              Alcotest.failf "publish_fleet: %s" (Registry.error_to_string e)
          | Ok o ->
              Alcotest.(check bool) "not committed" false o.Registry.committed;
              let real_rep =
                List.find
                  (fun rep -> rep.Registry.endpoint = real)
                  o.Registry.reports
              in
              Alcotest.(check bool) "real shard rolled back" true
                real_rep.Registry.rolled_back;
              let c = connect real in
              Fun.protect
                ~finally:(fun () -> Shard_client.close c)
                (fun () ->
                  match Shard_client.model_info c ~name:"m" with
                  | Ok (active, _) ->
                      Alcotest.(check (option int)) "active back to v1"
                        (Some 1) active
                  | Error e ->
                      Alcotest.failf "model_info: %s"
                        (Shard_client.error_to_string e))))

let test_fleet_publish_dead_endpoint () =
  (* A dead endpoint in the fleet list means staging fails: nothing may
     flip anywhere. *)
  with_fleet ~n:1 (fun _r ~rsock:_ ~socks ~daemons:_ ->
      let dead = tmp_sock () in
      let model2, dims2 = make_model ~seed:9 () in
      match
        Registry.publish_fleet
          ~endpoints:(socks @ [ dead ])
          ~name:"m" ~version:2 ~input_dims:dims2 model2
      with
      | Error e -> Alcotest.failf "publish_fleet: %s" (Registry.error_to_string e)
      | Ok o ->
          Alcotest.(check bool) "not committed" false o.Registry.committed;
          let c = connect (List.hd socks) in
          Fun.protect
            ~finally:(fun () -> Shard_client.close c)
            (fun () ->
              match Shard_client.model_info c ~name:"m" with
              | Ok (active, _) ->
                  Alcotest.(check (option int)) "still v1" (Some 1) active
              | Error e ->
                  Alcotest.failf "model_info: %s"
                    (Shard_client.error_to_string e)))

let () =
  Alcotest.run "router"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest prop_ring_deterministic;
          QCheck_alcotest.to_alcotest prop_ring_stability;
          QCheck_alcotest.to_alcotest prop_ring_add_inverse;
          QCheck_alcotest.to_alcotest prop_ring_successors;
          Alcotest.test_case "distribution" `Quick test_ring_distribution;
          Alcotest.test_case "empty ring" `Quick test_ring_empty;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "routed infer bit-identical" `Quick
            test_routed_bit_identical;
          Alcotest.test_case "health view" `Quick test_health_view;
          Alcotest.test_case "failover on killed shard" `Quick
            test_failover_on_killed_shard;
          Alcotest.test_case "recovery after restart" `Quick
            test_recovery_after_restart;
          Alcotest.test_case "backpressure propagation" `Quick
            test_backpressure_propagation;
          Alcotest.test_case "drained fleet" `Quick
            test_drained_fleet_unavailable;
          Alcotest.test_case "router ping and stats" `Quick
            test_router_ping_and_stats;
        ] );
      ( "publish",
        [
          Alcotest.test_case "fleet publish v2" `Quick test_fleet_publish_v2;
          Alcotest.test_case "rollback on refused flip" `Quick
            test_fleet_publish_rollback;
          Alcotest.test_case "dead endpoint aborts" `Quick
            test_fleet_publish_dead_endpoint;
        ] );
    ]
