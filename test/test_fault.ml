(* Chaos & resilience tests (PR 8): fault-spec parsing (round-trip
   property), seeded replay determinism, the circuit-breaker state
   machine driven with an explicit clock, retry-jitter bounds, monotonic
   clock sanity, and end-to-end chaos against an in-process fleet —
   every scheduled request ends in exactly one typed outcome, with zero
   lost acks and zero deadline-budget violations while faults fire. *)

module Tensor = Twq_tensor.Tensor
module Rng = Twq_util.Rng
module Mclock = Twq_util.Mclock
module Wire = Twq_serve.Wire
module Model = Twq_serve.Model
module Registry = Twq_serve.Registry
module Server = Twq_serve.Server
module Router = Twq_serve.Router
module Shard_client = Twq_serve.Shard_client
module Fault = Twq_serve.Fault
module Retry = Twq_serve.Retry
module Loadgen = Twq_serve.Loadgen

(* ------------------------------------------------------- spec parsing *)

let rule_pp fmt (r : Fault.rule) =
  Format.fprintf fmt "%s[%s]:%s=%g"
    (Fault.site_name r.Fault.site)
    (Option.value ~default:"" r.Fault.peer)
    (Fault.kind_name r.Fault.kind)
    r.Fault.prob

let rule_eq (a : Fault.rule) (b : Fault.rule) = a = b
let rule_t = Alcotest.testable rule_pp rule_eq

let parse_ok spec =
  match Fault.parse spec with
  | Ok rules -> rules
  | Error m -> Alcotest.failf "parse %S: %s" spec m

let test_parse_example () =
  let rules = parse_ok "connect:refuse=0.1, reply[shard2]:stall=1.0@300" in
  Alcotest.(check (list rule_t))
    "example spec"
    [
      { Fault.site = Fault.Connect; peer = None; kind = Fault.Refuse; prob = 0.1 };
      {
        Fault.site = Fault.Reply;
        peer = Some "shard2";
        kind = Fault.Stall 0.3;
        prob = 1.0;
      };
    ]
    rules

let test_parse_default_duration () =
  match parse_ok "send:delay=0.5" with
  | [ { Fault.kind = Fault.Delay d; _ } ] ->
      Alcotest.(check (float 1e-9)) "default 100 ms" 0.1 d
  | _ -> Alcotest.fail "expected one delay rule"

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S should not parse" spec)
    [
      "";
      "connect";
      "connect:refuse";
      "teleport:refuse=0.5";
      "connect:vanish=0.5";
      "connect:refuse=1.5";
      "connect:refuse=-0.1";
      "connect:refuse=x";
      "connect:stall=0.5@minus";
      "connect:stall=0.5@-3";
    ]

(* Round-trip: rendering a rule back to the spec grammar and re-parsing
   it must reproduce the rule exactly. Probabilities are drawn on a
   1/20 lattice and durations in whole milliseconds so the %g rendering
   is lossless. *)
let render_rule (r : Fault.rule) =
  let peer = match r.Fault.peer with None -> "" | Some p -> "[" ^ p ^ "]" in
  let ms k = Printf.sprintf "@%g" (k *. 1000.0) in
  let kind, dur =
    match r.Fault.kind with
    | Fault.Refuse -> ("refuse", "")
    | Fault.Drop -> ("drop", "")
    | Fault.Stall s -> ("stall", ms s)
    | Fault.Delay s -> ("delay", ms s)
  in
  Printf.sprintf "%s%s:%s=%g%s"
    (Fault.site_name r.Fault.site)
    peer kind r.Fault.prob dur

let gen_rule =
  QCheck.Gen.(
    let* site = oneofl [ Fault.Connect; Fault.Send; Fault.Recv; Fault.Reply ] in
    let* peer =
      oneof
        [ return None; map Option.some (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) ]
    in
    let* prob = map (fun k -> float_of_int k /. 20.0) (int_bound 20) in
    let* kind =
      oneof
        [
          return Fault.Refuse;
          return Fault.Drop;
          map (fun ms -> Fault.Stall (float_of_int ms /. 1000.0)) (int_range 1 5000);
          map (fun ms -> Fault.Delay (float_of_int ms /. 1000.0)) (int_range 1 5000);
        ]
    in
    return { Fault.site; peer; kind; prob })

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"fault spec: render/parse round-trips" ~count:200
    QCheck.(make Gen.(list_size (int_range 1 5) gen_rule))
    (fun rules ->
      let spec = String.concat "," (List.map render_rule rules) in
      match Fault.parse spec with
      | Ok rules' -> rules = rules'
      | Error m -> QCheck.Test.fail_reportf "%S did not parse: %s" spec m)

(* ------------------------------------------------- replay determinism *)

let gen_probe_script =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (pair
         (oneofl [ Fault.Connect; Fault.Send; Fault.Recv; Fault.Reply ])
         (oneofl [ "shard1.sock"; "shard2.sock"; "router.sock" ])))

let prop_replay_deterministic =
  QCheck.Test.make
    ~name:"fault plan: same seed + same probe sequence = same schedule"
    ~count:100
    QCheck.(
      make
        Gen.(
          let* seed = int_bound 10_000 in
          let* rules = list_size (int_range 1 4) gen_rule in
          let* script = gen_probe_script in
          return (seed, rules, script)))
    (fun (seed, rules, script) ->
      let run () =
        let p = Fault.create ~seed rules in
        let verdicts =
          List.map (fun (site, peer) -> Fault.decide p site ~peer) script
        in
        (verdicts, Fault.log p, Fault.counts p)
      in
      run () = run ())

let test_replay_log_shape () =
  (* The decision log records every probe (including clean passes), in
     call order — that is what lets two chaos runs be compared
     decision-for-decision. *)
  let p = Fault.create ~seed:7 [ { Fault.site = Fault.Connect; peer = None; kind = Fault.Refuse; prob = 0.5 } ] in
  for _ = 1 to 40 do
    ignore (Fault.decide p Fault.Connect ~peer:"s1");
    ignore (Fault.decide p Fault.Send ~peer:"s1")
  done;
  let log = Fault.log p in
  Alcotest.(check int) "all 80 probes logged" 80 (List.length log);
  let refusals =
    List.length (List.filter (fun (_, _, v) -> v <> None) log)
  in
  Alcotest.(check int) "counts agree with log" refusals
    (List.assoc "refuse" (Fault.counts p));
  Alcotest.(check bool) "some refusals fired" true (refusals > 0);
  Alcotest.(check bool) "sends never fault (site filter)" true
    (List.for_all
       (fun (site, _, v) -> site <> Fault.Send || v = None)
       log)

let test_peer_filter () =
  let p =
    Fault.create ~seed:1
      [ { Fault.site = Fault.Connect; peer = Some "shard2"; kind = Fault.Refuse; prob = 1.0 } ]
  in
  Alcotest.(check bool) "matching peer faults" true
    (Fault.decide p Fault.Connect ~peer:"/tmp/shard2.sock" <> None);
  Alcotest.(check bool) "other peer passes" true
    (Fault.decide p Fault.Connect ~peer:"/tmp/shard1.sock" = None)

let test_hook_arm_disarm () =
  Alcotest.(check bool) "disarmed probe is None" true
    (Fault.probe Fault.Connect ~peer:"x" = None);
  let p =
    Fault.create ~seed:0
      [ { Fault.site = Fault.Connect; peer = None; kind = Fault.Refuse; prob = 1.0 } ]
  in
  Fun.protect ~finally:Fault.disarm (fun () ->
      Fault.arm p;
      Alcotest.(check bool) "armed probe faults" true
        (Fault.probe Fault.Connect ~peer:"x" = Some Fault.Refuse));
  Alcotest.(check bool) "disarm restores clean path" true
    (Fault.probe Fault.Connect ~peer:"x" = None)

(* ------------------------------------------------------------ breaker *)

let state_t =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Router.Breaker.state_label s))
    ( = )

let test_breaker_trip_probe_close () =
  let module B = Router.Breaker in
  let b = B.create ~failures:3 ~cooldown:1.0 () in
  Alcotest.(check state_t) "starts closed" B.Closed (B.state b);
  Alcotest.(check bool) "f1 stays" true (B.failure b ~now:0.0 = `Stayed);
  Alcotest.(check bool) "f2 stays" true (B.failure b ~now:0.1 = `Stayed);
  Alcotest.(check bool) "f3 opens" true (B.failure b ~now:0.2 = `Opened);
  Alcotest.(check state_t) "open" B.Open (B.state b);
  Alcotest.(check bool) "closed before cooldown" true
    (B.admit b ~now:0.9 = `No);
  Alcotest.(check bool) "straggler success ignored while open" true
    (B.success b = `Stayed);
  Alcotest.(check state_t) "still open" B.Open (B.state b);
  Alcotest.(check bool) "cooldown grants a probe" true
    (B.admit b ~now:1.3 = `Probe);
  Alcotest.(check state_t) "half-open" B.Half_open (B.state b);
  Alcotest.(check bool) "only one probe at a time" true
    (B.admit b ~now:1.4 = `No);
  Alcotest.(check bool) "probe success closes" true
    (B.success b = `Closed_now);
  Alcotest.(check state_t) "closed again" B.Closed (B.state b);
  Alcotest.(check bool) "traffic flows" true (B.admit b ~now:1.5 = `Yes)

let test_breaker_probe_failure_reopens () =
  let module B = Router.Breaker in
  let b = B.create ~failures:1 ~cooldown:0.5 () in
  ignore (B.failure b ~now:0.0);
  Alcotest.(check bool) "probe granted" true (B.admit b ~now:0.6 = `Probe);
  Alcotest.(check bool) "probe failure reopens" true
    (B.failure b ~now:0.7 = `Opened);
  Alcotest.(check state_t) "open again" B.Open (B.state b);
  Alcotest.(check bool) "cooldown restarts from the reopen" true
    (B.admit b ~now:1.0 = `No);
  Alcotest.(check bool) "next probe after full cooldown" true
    (B.admit b ~now:1.3 = `Probe)

let test_breaker_silent_probe_rearms () =
  let module B = Router.Breaker in
  let b = B.create ~failures:1 ~cooldown:0.5 () in
  ignore (B.failure b ~now:0.0);
  Alcotest.(check bool) "probe granted" true (B.admit b ~now:0.6 = `Probe);
  (* The probe never reports back; the breaker must not wedge shut. *)
  Alcotest.(check bool) "no second probe inside cooldown" true
    (B.admit b ~now:0.9 = `No);
  Alcotest.(check bool) "silent probe re-arms after cooldown" true
    (B.admit b ~now:1.2 = `Probe);
  Alcotest.(check bool) "late success of the re-armed probe closes" true
    (B.success b = `Closed_now)

let test_breaker_success_resets_count () =
  let module B = Router.Breaker in
  let b = B.create ~failures:3 ~cooldown:1.0 () in
  ignore (B.failure b ~now:0.0);
  ignore (B.failure b ~now:0.1);
  ignore (B.success b);
  (* The streak broke: two more failures must not trip it. *)
  Alcotest.(check bool) "f after reset stays" true
    (B.failure b ~now:0.2 = `Stayed);
  Alcotest.(check bool) "still below threshold" true
    (B.failure b ~now:0.3 = `Stayed);
  Alcotest.(check state_t) "closed" B.Closed (B.state b);
  Alcotest.(check bool) "third consecutive trips" true
    (B.failure b ~now:0.4 = `Opened)

(* -------------------------------------------------------------- retry *)

let drain_retry ~seed policy =
  let t = Retry.start ~seed policy in
  let rec go acc =
    match Retry.next t with Some s -> go (s :: acc) | None -> List.rev acc
  in
  go []

let test_retry_bounds_and_determinism () =
  let policy = { Retry.attempts = 6; base = 0.01; cap = 0.4 } in
  let a = drain_retry ~seed:42 policy in
  let b = drain_retry ~seed:42 policy in
  Alcotest.(check (list (float 0.0))) "same seed, same sleeps" a b;
  Alcotest.(check int) "grants = attempts - 1" 5 (List.length a);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "sleep %g in [base, cap]" s)
        true
        (s >= policy.Retry.base && s <= policy.Retry.cap))
    a

let test_retry_no_retry () =
  Alcotest.(check (list (float 0.0))) "no_retry grants nothing" []
    (drain_retry ~seed:0 Retry.no_retry)

let prop_retry_jitter_bounded =
  QCheck.Test.make ~name:"retry: every granted sleep is in [base, cap]"
    ~count:200
    QCheck.(
      make
        Gen.(
          let* seed = int_bound 100_000 in
          let* attempts = int_range 1 8 in
          let* base = map (fun k -> float_of_int k /. 1000.0) (int_range 0 50) in
          let* extra = map (fun k -> float_of_int k /. 1000.0) (int_range 0 500) in
          return (seed, { Retry.attempts; base; cap = base +. extra })))
    (fun (seed, policy) ->
      let sleeps = drain_retry ~seed policy in
      List.length sleeps = policy.Retry.attempts - 1
      && List.for_all
           (fun s -> s >= policy.Retry.base && s <= policy.Retry.cap)
           sleeps)

(* ------------------------------------------------------------- mclock *)

let test_mclock_monotone () =
  let t0 = Mclock.now () in
  let prev = ref t0 in
  for _ = 1 to 1000 do
    let t = Mclock.now () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done;
  Unix.sleepf 0.02;
  let dt = Mclock.elapsed t0 in
  Alcotest.(check bool) "elapsed covers the sleep" true (dt >= 0.015);
  Alcotest.(check bool) "elapsed is sane" true (dt < 10.0)

(* ------------------------------------------------------ chaos e2e *)

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

(* Shard sockets carry a "twq_shard" prefix and the router a "twq_rtr"
   prefix, so peer-filtered fault rules can hit the shard legs of the
   fleet without touching the client <-> router leg. *)
let tmp_sock prefix =
  let p = Filename.temp_file prefix ".sock" in
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

let with_fleet ?(n = 2) ?router_config f =
  let dirs = List.init n (fun _ -> tmp_dir "twq_chaos") in
  let socks = List.init n (fun _ -> tmp_sock "twq_shard") in
  let rsock = tmp_sock "twq_rtr" in
  let daemons = ref [] in
  let router = ref None in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
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
          match Server.listen ~registry:reg ~path:sock () with
          | Ok d -> daemons := !daemons @ [ d ]
          | Error e -> Alcotest.failf "listen %s: %s" sock e)
        dirs socks;
      let config =
        Option.value router_config
          ~default:
            {
              Router.default_config with
              Router.heartbeat_interval = 0.05;
              connect_timeout = 2.0;
            }
      in
      match Router.start ~config ~shards:socks ~path:rsock () with
      | Error e -> Alcotest.failf "router: %s" e
      | Ok r ->
          router := Some r;
          Thread.delay 0.2;
          f r ~rsock ~socks ~daemons:!daemons)

let run_chaos_load ~rsock ~requests ~rate ?deadline ?(retry = Retry.no_retry) ()
    =
  Loadgen.run_poisson
    ~connect:(fun () -> Shard_client.connect ~timeout:5.0 rsock)
    ~make_input:(fun i -> rand_input (9000 + i))
    ~requests ~rate ~slo:0.5 ~connections:2 ~seed:11 ~retry ?deadline ()

let check_accounted s ~requests =
  let accounted =
    s.Loadgen.p_completed + s.Loadgen.p_overloaded + s.Loadgen.p_expired
    + s.Loadgen.p_other_rejected + s.Loadgen.p_lost
  in
  Alcotest.(check int) "every request accounted once" requests accounted

(* Refused shard connects: the router's retry budget and failover absorb
   them. Typed outcomes only, zero lost acks, zero budget violations. *)
let test_chaos_refused_connects () =
  with_fleet (fun r ~rsock ~socks:_ ~daemons:_ ->
      let plan =
        Result.get_ok
          (Fault.of_spec ~seed:1234 "connect[twq_shard]:refuse=0.4")
      in
      Fault.arm plan;
      let s = run_chaos_load ~rsock ~requests:60 ~rate:400.0 () in
      Fault.disarm ();
      check_accounted s ~requests:60;
      Alcotest.(check int) "zero lost acks" 0 s.Loadgen.p_lost;
      Alcotest.(check int) "zero budget violations" 0
        s.Loadgen.p_budget_violations;
      Alcotest.(check bool) "refusals actually fired" true
        (List.assoc "refuse" (Fault.counts plan) > 0);
      Alcotest.(check bool) "most requests still complete" true
        (s.Loadgen.p_completed > 30);
      ignore (Router.counters r))

(* Severed frames mid-send: the shard's CRC/length checks must reject
   the partial frame (decode error, never a wrong answer) and the
   router's transparent retry replays the request elsewhere. *)
let test_chaos_severed_sends () =
  with_fleet (fun _r ~rsock ~socks:_ ~daemons:_ ->
      let plan =
        Result.get_ok (Fault.of_spec ~seed:77 "send[twq_shard]:drop=0.25")
      in
      Fault.arm plan;
      let s = run_chaos_load ~rsock ~requests:60 ~rate:400.0 () in
      Fault.disarm ();
      check_accounted s ~requests:60;
      Alcotest.(check int) "zero lost acks" 0 s.Loadgen.p_lost;
      Alcotest.(check int) "zero budget violations" 0
        s.Loadgen.p_budget_violations;
      Alcotest.(check bool) "drops actually fired" true
        (List.assoc "drop" (Fault.counts plan) > 0);
      Alcotest.(check bool) "most requests still complete" true
        (s.Loadgen.p_completed > 30))

(* A mid-frame severed reply must surface as a typed transport error,
   never logits — and once faults stop a fresh connection must serve
   bit-identical answers.  Shard and router write replies through the
   same front end, so both are torn: the shard on a direct connection,
   the router on a client of its socket (its shard leg stays clean). *)
let test_chaos_partial_reply_never_wrong () =
  with_fleet ~n:1 (fun _r ~rsock ~socks ~daemons:_ ->
      let x = rand_input 4242 in
      List.iter
        (fun (spec, sock) ->
          let plan = Result.get_ok (Fault.of_spec ~seed:5 spec) in
          Fault.arm plan;
          (match Shard_client.connect ~timeout:5.0 sock with
          | Error e ->
              Alcotest.failf "%s: connect: %s" spec
                (Shard_client.error_to_string e)
          | Ok c ->
              (match Shard_client.infer ~key:"k" c x with
              | Ok { outcome = Wire.Logits _; _ } ->
                  Alcotest.failf "%s: severed reply produced logits" spec
              | Ok _ ->
                  Alcotest.failf "%s: severed reply produced a typed reply"
                    spec
              | Error (Shard_client.Io _ | Shard_client.Decode _) -> ()
              | Error e ->
                  Alcotest.failf "%s: unexpected error class: %s" spec
                    (Shard_client.error_to_string e));
              Shard_client.close c);
          Fault.disarm ();
          Alcotest.(check bool) (spec ^ ": drop fired") true
            (List.assoc "drop" (Fault.counts plan) > 0);
          match Shard_client.connect ~timeout:5.0 sock with
          | Error e ->
              Alcotest.failf "%s: reconnect: %s" spec
                (Shard_client.error_to_string e)
          | Ok c ->
              (match Shard_client.infer ~key:"k" c x with
              | Ok { outcome = Wire.Logits { data; _ }; _ } ->
                  Alcotest.(check bool)
                    (spec ^ ": post-chaos answer bit-identical")
                    true
                    (farr_eq data (reference_row x))
              | Ok _ -> Alcotest.failf "%s: expected logits after disarm" spec
              | Error e ->
                  Alcotest.failf "%s: infer after disarm: %s" spec
                    (Shard_client.error_to_string e));
              Shard_client.close c)
        [ ("reply[twq_shard]:drop=1.0", List.hd socks);
          ("reply[twq_rtr]:drop=1.0", rsock) ])

(* Client-side retry over a faulty direct shard leg: send drops sever
   the connection mid-frame, forcing a reconnect (which may itself be
   refused); a generous attempt budget must heal every request. *)
let test_chaos_client_retries_heal () =
  with_fleet ~n:1 (fun _r ~rsock:_ ~socks ~daemons:_ ->
      let plan =
        Result.get_ok
          (Fault.of_spec ~seed:99
             "send[twq_shard]:drop=0.3,connect[twq_shard]:refuse=0.2")
      in
      Fault.arm plan;
      let s =
        Loadgen.run_poisson
          ~connect:(fun () ->
            Shard_client.connect ~timeout:5.0 (List.hd socks))
          ~make_input:(fun i -> rand_input (7000 + i))
          ~requests:40 ~rate:400.0 ~slo:0.5 ~connections:1 ~seed:13
          ~retry:{ Retry.attempts = 10; base = 0.001; cap = 0.01 }
          ()
      in
      Fault.disarm ();
      check_accounted s ~requests:40;
      Alcotest.(check int) "retries healed every request" 0 s.Loadgen.p_lost;
      Alcotest.(check bool) "retries were needed" true
        (s.Loadgen.p_retries > 0);
      Alcotest.(check int) "all completed" 40 s.Loadgen.p_completed)

(* Deadline propagation under injected shard stalls: a stalled fleet
   must answer Expired/typed, never report a queue wait that exceeded
   the request's budget (zero violations), and never lose acks. *)
let test_chaos_deadline_under_stall () =
  with_fleet (fun _r ~rsock ~socks:_ ~daemons:_ ->
      let plan =
        Result.get_ok
          (Fault.of_spec ~seed:21 "recv[twq_shard]:stall=0.3@40")
      in
      Fault.arm plan;
      let s =
        run_chaos_load ~rsock ~requests:40 ~rate:200.0 ~deadline:0.25 ()
      in
      Fault.disarm ();
      check_accounted s ~requests:40;
      Alcotest.(check int) "zero lost acks" 0 s.Loadgen.p_lost;
      Alcotest.(check int) "zero budget violations" 0
        s.Loadgen.p_budget_violations;
      Alcotest.(check bool) "stalls actually fired" true
        (List.assoc "stall" (Fault.counts plan) > 0))

(* ----------------------------------------------------------- suite *)

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "example parses" `Quick test_parse_example;
          Alcotest.test_case "default duration" `Quick
            test_parse_default_duration;
          Alcotest.test_case "malformed specs rejected" `Quick
            test_parse_errors;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
        ] );
      ( "replay",
        [
          QCheck_alcotest.to_alcotest prop_replay_deterministic;
          Alcotest.test_case "log + counts shape" `Quick test_replay_log_shape;
          Alcotest.test_case "peer filter" `Quick test_peer_filter;
          Alcotest.test_case "arm / disarm hook" `Quick test_hook_arm_disarm;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trip, probe, close" `Quick
            test_breaker_trip_probe_close;
          Alcotest.test_case "probe failure reopens" `Quick
            test_breaker_probe_failure_reopens;
          Alcotest.test_case "silent probe re-arms" `Quick
            test_breaker_silent_probe_rearms;
          Alcotest.test_case "success resets the streak" `Quick
            test_breaker_success_resets_count;
        ] );
      ( "retry",
        [
          Alcotest.test_case "bounds + determinism" `Quick
            test_retry_bounds_and_determinism;
          Alcotest.test_case "no_retry" `Quick test_retry_no_retry;
          QCheck_alcotest.to_alcotest prop_retry_jitter_bounded;
        ] );
      ( "mclock",
        [ Alcotest.test_case "monotone" `Quick test_mclock_monotone ] );
      ( "chaos",
        [
          Alcotest.test_case "refused connects absorbed" `Quick
            test_chaos_refused_connects;
          Alcotest.test_case "severed sends absorbed" `Quick
            test_chaos_severed_sends;
          Alcotest.test_case "partial reply never wrong" `Quick
            test_chaos_partial_reply_never_wrong;
          Alcotest.test_case "client retries heal" `Quick
            test_chaos_client_retries_heal;
          Alcotest.test_case "deadlines under stalls" `Quick
            test_chaos_deadline_under_stall;
        ] );
    ]
