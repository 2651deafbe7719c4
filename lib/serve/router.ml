(* Consistent-hash router daemon.

   Ring: every shard endpoint contributes [vnodes] points, each the
   FNV-1a 64-bit hash of "<endpoint>#<i>", kept in one sorted array.  A
   key routes to the first point clockwise of its own hash (unsigned
   comparison, wrapping), and its failover candidates are the distinct
   endpoints met continuing clockwise — so removing a shard moves only
   the keys it owned, each to its next distinct neighbour.

   Serving: the router speaks the same Wire protocol as a shard, served
   through the same [Listener], and proxies [Infer] frames with
   [Shard_client.infer_raw], so a client cannot tell a router from a
   shard.  Each handler exchange checks a connection out of the target
   shard's small pool and returns it on success; any IO error both
   kills that connection and marks the shard [Dead] so other requests
   stop queueing behind a corpse.  Inference is idempotent —
   retrying a request whose shard died mid-flight on the next ring node
   is safe, and is exactly what keeps a SIGKILLed shard from losing
   acks in the chaos smoke.

   Resilience (PR 8): every forward consults a per-shard circuit
   breaker (closed → open after K consecutive transport failures →
   half-open probe after a cooldown), each request carries a retry
   budget with decorrelated-jitter backoff instead of one transparent
   retry, the relative deadline is re-derived from the monotonic clock
   before every hop so shards never batch work whose budget upstream
   queueing already spent.  All timing is [Mclock]; the wall clock
   appears nowhere on the request path. *)

module Mclock = Twq_util.Mclock

type health = Healthy | Backpressured | Dead

let health_label = function
  | Healthy -> "healthy"
  | Backpressured -> "backpressured"
  | Dead -> "dead"

module Ring = struct
  let fnv_prime = 0x100000001b3L
  let fnv_basis = 0xcbf29ce484222325L

  (* murmur3's fmix64 finalizer.  Raw FNV-1a has weak avalanche on the
     trailing bytes of short, near-identical strings — the 64 vnode
     names "<endpoint>#0".."<endpoint>#63" differ only in their suffix,
     so without this their points cluster into one tight arc per
     endpoint and a single shard can own essentially the whole key
     space (observed: one shard owning 20/20 test keys). *)
  let mix64 h =
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xff51afd7ed558ccdL in
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
    Int64.logxor h (Int64.shift_right_logical h 33)

  let fnv1a64 s =
    let h = ref fnv_basis in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
      s;
    mix64 !h

  type t = {
    vnodes : int;
    eps : string list; (* sorted, distinct *)
    points : (int64 * string) array; (* sorted by unsigned point *)
  }

  let build vnodes eps =
    let points =
      List.concat_map
        (fun ep ->
          List.init vnodes (fun i ->
              (fnv1a64 (Printf.sprintf "%s#%d" ep i), ep)))
        eps
      |> Array.of_list
    in
    Array.sort
      (fun (a, ea) (b, eb) ->
        let c = Int64.unsigned_compare a b in
        if c <> 0 then c else compare ea eb)
      points;
    { vnodes; eps; points }

  let create ?(vnodes = 64) eps =
    if vnodes < 1 then invalid_arg "Ring.create: vnodes < 1";
    build vnodes (List.sort_uniq compare eps)

  let endpoints t = t.eps

  (* Index of the first point with hash >= h (unsigned), wrapping to 0. *)
  let successor_index t h =
    let n = Array.length t.points in
    if n = 0 then -1
    else begin
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then lo := mid + 1
        else hi := mid
      done;
      if !lo = n then 0 else !lo
    end

  let route t key =
    let i = successor_index t (fnv1a64 key) in
    if i < 0 then None else Some (snd t.points.(i))

  let successors t key =
    let n = Array.length t.points in
    if n = 0 then []
    else begin
      let start = successor_index t (fnv1a64 key) in
      let want = List.length t.eps in
      let seen = Hashtbl.create want and order = ref [] in
      let i = ref 0 in
      while Hashtbl.length seen < want && !i < n do
        let ep = snd t.points.((start + !i) mod n) in
        if not (Hashtbl.mem seen ep) then begin
          Hashtbl.add seen ep ();
          order := ep :: !order
        end;
        incr i
      done;
      List.rev !order
    end

  let add t ep = build t.vnodes (List.sort_uniq compare (ep :: t.eps))
  let remove t ep = build t.vnodes (List.filter (( <> ) ep) t.eps)
end

(* Per-shard circuit breaker.  Closed counts consecutive transport
   failures and trips at K; Open rejects everything until [cooldown]
   has elapsed, then grants exactly one probe (Half_open); the probe's
   verdict closes or re-opens the breaker.  A probe that never reports
   back (lost thread, dropped reply) re-arms after another cooldown, so
   a silent probe cannot wedge the breaker shut forever.  Callers pass
   [now] explicitly (monotonic seconds) so the state machine is unit-
   testable without sleeping. *)
module Breaker = struct
  type state = Closed | Open | Half_open

  let state_label = function
    | Closed -> "closed"
    | Open -> "open"
    | Half_open -> "half-open"

  type t = {
    failures : int; (* K consecutive failures to trip *)
    cooldown : float; (* seconds open before a probe *)
    mu : Mutex.t;
    mutable st : state;
    mutable consecutive : int;
    mutable since : float; (* entered Open / probe granted *)
  }

  let create ?(failures = 5) ?(cooldown = 1.0) () =
    if failures < 1 then invalid_arg "Breaker.create: failures < 1";
    if cooldown < 0.0 then invalid_arg "Breaker.create: cooldown < 0";
    {
      failures;
      cooldown;
      mu = Mutex.create ();
      st = Closed;
      consecutive = 0;
      since = 0.0;
    }

  let state t =
    Mutex.lock t.mu;
    let s = t.st in
    Mutex.unlock t.mu;
    s

  let admit t ~now =
    Mutex.lock t.mu;
    let v =
      match t.st with
      | Closed -> `Yes
      | Open ->
          if now -. t.since >= t.cooldown then begin
            t.st <- Half_open;
            t.since <- now;
            `Probe
          end
          else `No
      | Half_open ->
          if now -. t.since >= t.cooldown then begin
            (* The previous probe went silent; grant another. *)
            t.since <- now;
            `Probe
          end
          else `No
    in
    Mutex.unlock t.mu;
    v

  let success t =
    Mutex.lock t.mu;
    let r =
      match t.st with
      | Closed ->
          t.consecutive <- 0;
          `Stayed
      | Half_open ->
          t.st <- Closed;
          t.consecutive <- 0;
          `Closed_now
      | Open ->
          (* A straggler from before the trip; only a probe may close. *)
          `Stayed
    in
    Mutex.unlock t.mu;
    r

  let failure t ~now =
    Mutex.lock t.mu;
    let r =
      match t.st with
      | Closed ->
          t.consecutive <- t.consecutive + 1;
          if t.consecutive >= t.failures then begin
            t.st <- Open;
            t.since <- now;
            `Opened
          end
          else `Stayed
      | Half_open ->
          t.st <- Open;
          t.since <- now;
          `Opened
      | Open -> `Stayed
    in
    Mutex.unlock t.mu;
    r
end

type config = {
  vnodes : int;
  heartbeat_interval : float;
  connect_timeout : float;
  pool : int;
  retry : Retry.policy; (* per-request attempt budget *)
  breaker_failures : int; (* K consecutive failures to trip *)
  breaker_cooldown : float; (* seconds open before half-open probe *)
  seed : int; (* retry-jitter seed *)
}

let default_config =
  {
    vnodes = 64;
    heartbeat_interval = 0.25;
    (* 2 s, not 10: the data path's connect timeout must stay within
       the same order as the heartbeat, or a black-holed endpoint
       wedges handler threads long after the sweep called it dead. *)
    connect_timeout = 2.0;
    pool = 4;
    retry = Retry.default;
    breaker_failures = 5;
    breaker_cooldown = 1.0;
    seed = 0;
  }

type shard = {
  sh_endpoint : string;
  sh_mutex : Mutex.t;
  sh_breaker : Breaker.t;
  mutable sh_health : health;
  mutable sh_pool : Shard_client.t list;
}

type t = {
  r_config : config;
  r_ring : Ring.t;
  r_shards : (string * shard) list; (* input order *)
  r_listener : Listener.t;
  mutable r_heartbeat : Thread.t option;
  mutable r_draining : bool;
  r_reqseq : int Atomic.t; (* per-request retry-jitter streams *)
  c_routed : Metrics.Counter.t;
  c_failovers : Metrics.Counter.t;
  c_spills : Metrics.Counter.t;
  c_unavailable : Metrics.Counter.t;
  c_unhealthy : Metrics.Counter.t;
  c_recoveries : Metrics.Counter.t;
  c_retries : Metrics.Counter.t;
  c_breaker_opens : Metrics.Counter.t;
  c_breaker_probes : Metrics.Counter.t;
  c_breaker_closes : Metrics.Counter.t;
  c_deadline_rejected : Metrics.Counter.t;
}

(* --- health ------------------------------------------------------- *)

let set_health t sh h =
  Mutex.lock sh.sh_mutex;
  let old = sh.sh_health in
  sh.sh_health <- h;
  Mutex.unlock sh.sh_mutex;
  if old <> h then begin
    if h = Dead then Metrics.Counter.incr t.c_unhealthy;
    if h = Healthy && old = Dead then Metrics.Counter.incr t.c_recoveries
  end

let get_health sh =
  Mutex.lock sh.sh_mutex;
  let h = sh.sh_health in
  Mutex.unlock sh.sh_mutex;
  h

(* --- per-shard connection pool ------------------------------------ *)

let checkout t sh =
  Mutex.lock sh.sh_mutex;
  let c =
    match sh.sh_pool with
    | c :: rest ->
        sh.sh_pool <- rest;
        Some c
    | [] -> None
  in
  Mutex.unlock sh.sh_mutex;
  match c with
  | Some c -> Ok c
  | None -> Shard_client.connect ~timeout:t.r_config.connect_timeout sh.sh_endpoint

let checkin t sh c =
  Mutex.lock sh.sh_mutex;
  (* After stop, in-flight attempts may still be completing; close
     rather than repopulate a pool nobody will drain again. *)
  let keep =
    Listener.running t.r_listener && List.length sh.sh_pool < t.r_config.pool
  in
  if keep then sh.sh_pool <- c :: sh.sh_pool;
  Mutex.unlock sh.sh_mutex;
  if not keep then Shard_client.close c

let drop_pool sh =
  Mutex.lock sh.sh_mutex;
  let pool = sh.sh_pool in
  sh.sh_pool <- [];
  Mutex.unlock sh.sh_mutex;
  List.iter Shard_client.close pool

(* --- infer proxy path --------------------------------------------- *)

let breaker_failure t sh =
  match Breaker.failure sh.sh_breaker ~now:(Mclock.now ()) with
  | `Opened -> Metrics.Counter.incr t.c_breaker_opens
  | `Stayed -> ()

let breaker_success t sh =
  match Breaker.success sh.sh_breaker with
  | `Closed_now -> Metrics.Counter.incr t.c_breaker_closes
  | `Stayed -> ()

(* One attempt against one shard.  [`Final] outcomes are returned to the
   client as-is; [`Spill] (typed backpressure, drain, missing model)
   and [`Dead] (transport failure) move on to the next ring node.
   Transport failures feed the shard's breaker; any typed reply —
   including backpressure — proves the transport works and feeds
   success. *)
let attempt t sh ~deadline ~key ~dims ~data =
  match checkout t sh with
  | Error _ ->
      breaker_failure t sh;
      set_health t sh Dead;
      `Dead
  | Ok c -> (
      match Shard_client.infer_raw ?deadline ~key ~dims ~data c with
      | Error (Shard_client.Connect _ | Shard_client.Io _
              | Shard_client.Decode _ | Shard_client.Unexpected_reply _) ->
          Shard_client.close c;
          breaker_failure t sh;
          set_health t sh Dead;
          `Dead
      | Error (Shard_client.Remote _) ->
          checkin t sh c;
          breaker_success t sh;
          `Spill Wire.Closed
      | Ok { outcome; _ } -> (
          checkin t sh c;
          breaker_success t sh;
          match outcome with
          | Wire.Overloaded ->
              set_health t sh Backpressured;
              `Spill Wire.Overloaded
          | Wire.Closed | Wire.No_model | Wire.Unavailable _ ->
              `Spill outcome
          | Wire.Logits _ | Wire.Expired | Wire.Invalid _ | Wire.Failed _ ->
              if get_health sh = Backpressured then set_health t sh Healthy;
              `Final outcome))

let route_infer t ~deadline ~key ~dims ~data =
  Metrics.Counter.incr t.c_routed;
  let t0 = Mclock.now () in
  (* The wire deadline is a relative budget; re-derive what is left of
     it before every hop so elapsed routing/backoff time is deducted
     rather than silently granted again downstream. *)
  let remaining () =
    match deadline with None -> None | Some b -> Some (b -. Mclock.elapsed t0)
  in
  let expired () =
    match remaining () with Some r -> r <= 0.0 | None -> false
  in
  let candidates = Ring.successors t.r_ring key in
  (* Live shards first, in ring order; dead-marked shards are kept at
     the tail as last-resort probes, so a fleet the heartbeat has not
     re-scanned yet (or has wrongly written off) still gets one chance
     before the client sees Unavailable.  A successful probe also
     resurrects the shard ahead of the next heartbeat sweep. *)
  let order () =
    let live, dead =
      List.partition
        (fun ep -> get_health (List.assoc ep t.r_shards) <> Dead)
        candidates
    in
    live @ dead
  in
  let retry =
    Retry.start
      ~seed:(t.r_config.seed + Atomic.fetch_and_add t.r_reqseq 1)
      t.r_config.retry
  in
  (* Every attempt after the first draws on the retry budget and pays
     its jittered backoff (clipped to the remaining deadline). *)
  let first = ref true in
  let grant () =
    if !first then begin
      first := false;
      true
    end
    else
      match Retry.next retry with
      | None -> false
      | Some sleep ->
          Metrics.Counter.incr t.c_retries;
          let sleep =
            match remaining () with
            | Some r -> Float.min sleep (Float.max 0.0 (r -. 0.001))
            | None -> sleep
          in
          if sleep > 0.0 then Thread.delay sleep;
          true
  in
  let best = ref None in
  let tried = ref 0 in
  let merge o =
    (* Prefer reporting backpressure over drain/missing model: it tells
       the client to back off, not give up. *)
    best :=
      (match (!best, o) with
      | Some Wire.Overloaded, _ -> Some Wire.Overloaded
      | _, o -> Some o)
  in
  let fail o =
    incr tried;
    match o with
    | `Dead -> Metrics.Counter.incr t.c_failovers
    | `Spill o ->
        Metrics.Counter.incr t.c_spills;
        merge o
  in
  let unavailable () =
    Metrics.Counter.incr t.c_unavailable;
    match !best with
    | Some o -> o
    | None ->
        Wire.Unavailable
          (Printf.sprintf "no live shard for key (%d tried)" !tried)
  in
  let deadline_spent () =
    Metrics.Counter.incr t.c_deadline_rejected;
    Wire.Expired
  in
  let finalize sh o =
    if !tried > 0 then Metrics.Counter.incr t.c_failovers;
    if get_health sh = Dead then set_health t sh Healthy;
    o
  in
  (* One pass over the candidates; [`Blocked] = breaker rejected every
     shard without a single attempt, [`Budget] = retry budget ran dry. *)
  let rec walk made = function
    | [] -> if made then `Again else `Blocked
    | ep :: rest ->
        if expired () then `Done (deadline_spent ())
        else begin
          let sh = List.assoc ep t.r_shards in
          match Breaker.admit sh.sh_breaker ~now:(Mclock.now ()) with
          | `No -> walk made rest
          | (`Yes | `Probe) as adm ->
              if not (grant ()) then `Budget
              else begin
                if adm = `Probe then
                  Metrics.Counter.incr t.c_breaker_probes;
                match attempt t sh ~deadline:(remaining ()) ~key ~dims ~data with
                | `Final o -> `Done (finalize sh o)
                | (`Dead | `Spill _) as v ->
                    fail v;
                    walk true rest
              end
        end
  in
  let rec cycle () =
    match walk false (order ()) with
    | `Done o -> o
    | `Budget | `Blocked -> unavailable ()
    | `Again ->
        (* Something was attempted and everything failed; the budget
           decides whether another sweep is worth it. *)
        cycle ()
  in
  if expired () then deadline_spent () else cycle ()

(* --- stats and requests ------------------------------------------ *)

let counters t =
  [
    ("routed", Metrics.Counter.value t.c_routed);
    ("failovers", Metrics.Counter.value t.c_failovers);
    ("spills", Metrics.Counter.value t.c_spills);
    ("unavailable", Metrics.Counter.value t.c_unavailable);
    ("unhealthy_transitions", Metrics.Counter.value t.c_unhealthy);
    ("recoveries", Metrics.Counter.value t.c_recoveries);
    ("retries", Metrics.Counter.value t.c_retries);
    ("breaker_opens", Metrics.Counter.value t.c_breaker_opens);
    ("breaker_probes", Metrics.Counter.value t.c_breaker_probes);
    ("breaker_closes", Metrics.Counter.value t.c_breaker_closes);
    ("deadline_rejected", Metrics.Counter.value t.c_deadline_rejected);
  ]

let shard_health t =
  List.map (fun (ep, sh) -> (ep, get_health sh)) t.r_shards

let breakers t =
  List.map (fun (ep, sh) -> (ep, Breaker.state sh.sh_breaker)) t.r_shards

let stats_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n  \"shards\": [";
  List.iteri
    (fun i (ep, sh) ->
      Buffer.add_string b
        (Printf.sprintf "%s{\"endpoint\": %S, \"health\": %S, \"breaker\": %S}"
           (if i = 0 then "" else ", ")
           ep
           (health_label (get_health sh))
           (Breaker.state_label (Breaker.state sh.sh_breaker))))
    t.r_shards;
  Buffer.add_string b "],\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s\"%s\": %d" (if i = 0 then "" else ", ") name v))
    (counters t);
  Buffer.add_string b
    (Printf.sprintf "},\n  \"wire\": %s\n}\n"
       (Listener.stats_json t.r_listener));
  Buffer.contents b

let handle_msg t msg =
  match msg with
  | Wire.Infer { key; deadline; dims; data } ->
      if t.r_draining then Wire.Infer_reply Wire.Closed
      else Wire.Infer_reply (route_infer t ~deadline ~key ~dims ~data)
  | Wire.Ping ->
      let healthy =
        List.exists (fun (_, h) -> h = Healthy) (shard_health t)
      in
      Wire.Pong
        { healthy; queue_depth = 0; capacity = 0; draining = t.r_draining }
  | Wire.Stats -> Wire.Stats_reply (stats_json t)
  | Wire.Drain ->
      t.r_draining <- true;
      Wire.Drain_reply
  | Wire.Publish _ | Wire.Activate _ | Wire.Model_info _ ->
      Wire.Nack "publish/activate go directly to shard endpoints"
  | Wire.Infer_reply _ | Wire.Pong _ | Wire.Publish_reply _
  | Wire.Activate_reply _ | Wire.Model_info_reply _ | Wire.Stats_reply _
  | Wire.Drain_reply | Wire.Nack _ ->
      Wire.Nack "router expects requests, not replies"

(* Health sweep: one fresh short-timeout ping per shard per interval.
   The ping deliberately bypasses the pool — a pooled connection to a
   dead shard would just burn the timeout twice.  The ping's own
   timeout is capped by the sweep interval, never the data path's
   connect timeout: one black-holed endpoint must not stall the whole
   sweep.  Ping failures feed the shard's circuit breaker (a Dead
   shard stops receiving traffic, so traffic alone could never
   accumulate K failures); ping successes restore health only — the
   open → half-open → closed sequence stays traffic-driven. *)
let heartbeat_loop t =
  let interval = t.r_config.heartbeat_interval in
  let timeout =
    Float.max 0.05 (Float.min t.r_config.connect_timeout interval)
  in
  while Listener.running t.r_listener do
    List.iter
      (fun (_, sh) ->
        if Listener.running t.r_listener then
          match Shard_client.connect ~timeout sh.sh_endpoint with
          | Error _ ->
              breaker_failure t sh;
              set_health t sh Dead;
              drop_pool sh
          | Ok c ->
              (match Shard_client.ping c with
              | Ok (Wire.Pong { healthy = true; draining = false; _ }) ->
                  (* Keep a Backpressured mark until traffic succeeds;
                     the ping only proves liveness, not headroom. *)
                  if get_health sh = Dead then set_health t sh Healthy
              | Ok _ | Error _ ->
                  breaker_failure t sh;
                  set_health t sh Dead;
                  drop_pool sh);
              Shard_client.close c)
      t.r_shards;
    (* Sleep in small slices (monotonic accounting) so stop() is
       prompt. *)
    let t0 = Mclock.now () in
    while Listener.running t.r_listener && Mclock.elapsed t0 < interval do
      Thread.delay 0.05
    done
  done

let start ?(config = default_config) ~shards ~path () =
  if shards = [] then Error "router needs at least one shard endpoint"
  else
    Result.map
      (fun l ->
        let t =
          {
            r_config = config;
            r_ring = Ring.create ~vnodes:config.vnodes shards;
            r_shards =
              List.map
                (fun ep ->
                  ( ep,
                    {
                      sh_endpoint = ep;
                      sh_mutex = Mutex.create ();
                      sh_breaker =
                        Breaker.create ~failures:config.breaker_failures
                          ~cooldown:config.breaker_cooldown ();
                      sh_health = Healthy;
                      sh_pool = [];
                    } ))
                shards;
            r_listener = l;
            r_heartbeat = None;
            r_draining = false;
            r_reqseq = Atomic.make 0;
            c_routed = Metrics.Counter.create "routed";
            c_failovers = Metrics.Counter.create "failovers";
            c_spills = Metrics.Counter.create "spills";
            c_unavailable = Metrics.Counter.create "unavailable";
            c_unhealthy = Metrics.Counter.create "unhealthy_transitions";
            c_recoveries = Metrics.Counter.create "recoveries";
            c_retries = Metrics.Counter.create "retries";
            c_breaker_opens = Metrics.Counter.create "breaker_opens";
            c_breaker_probes = Metrics.Counter.create "breaker_probes";
            c_breaker_closes = Metrics.Counter.create "breaker_closes";
            c_deadline_rejected = Metrics.Counter.create "deadline_rejected";
          }
        in
        Listener.serve l (handle_msg t);
        t.r_heartbeat <- Some (Thread.create (fun () -> heartbeat_loop t) ());
        t)
      (Listener.bind path)

let path t = Listener.path t.r_listener

let stop t =
  t.r_draining <- true;
  Listener.stop t.r_listener ~abrupt:false;
  (* The heartbeat sees [Listener.running] turn false within one slice. *)
  Option.iter Thread.join t.r_heartbeat;
  List.iter (fun (_, sh) -> drop_pool sh) t.r_shards

let wait t = Listener.wait t.r_listener
