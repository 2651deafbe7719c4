(** Consistent-hash shard router.

    The router is a {!Wire}-speaking daemon that fronts a fixed fleet of
    shard endpoints.  Each [Infer]'s routing key is hashed onto a ring of
    virtual nodes (FNV-1a 64-bit finished with murmur3's fmix64 — raw
    FNV clusters the near-identical vnode names; [vnodes] points per
    shard), so a given
    key always lands on the same shard while live — and when shards die,
    only the keys they owned move (to the next distinct shard clockwise
    on the ring; everything else stays put).

    Health: a heartbeat thread pings every shard each
    [heartbeat_interval]; a shard that fails its ping (or reports
    draining) is marked [Dead] and skipped until a later ping succeeds.
    A shard that answers an infer with typed backpressure ([Overloaded])
    is marked [Backpressured]; the request spills to the next ring node,
    and the mark clears on the next successful exchange.  Inference is
    idempotent, so a request cut off by a dying shard (EOF mid-request)
    is retried transparently against the next candidate — clients only
    see [Unavailable] when every candidate is gone.

    Resilience: each shard carries a circuit {!Breaker} (tripped by K
    consecutive transport failures, including failed heartbeat pings;
    half-open probes after [breaker_cooldown]; closed again only by a
    successful traffic probe).  Each request gets a {!Retry.policy}
    attempt budget with decorrelated-jitter backoff.  The relative wire
    deadline is re-derived from the monotonic clock before every hop
    (elapsed routing and backoff time is deducted; a spent budget is
    answered [Expired] without forwarding). *)

(** The hash ring, exposed for property tests. *)
module Ring : sig
  type t

  val create : ?vnodes:int -> string list -> t
  (** [vnodes] defaults to 64 points per endpoint.  Duplicate endpoints
      are collapsed; order does not matter. *)

  val endpoints : t -> string list
  (** Sorted, distinct. *)

  val route : t -> string -> string option
  (** Owner of a key: the first point clockwise from the key's hash.
      [None] only for an empty ring. *)

  val successors : t -> string -> string list
  (** All distinct endpoints in ring order starting at the key's owner —
      the failover candidate order. *)

  val add : t -> string -> t

  val remove : t -> string -> t
end

type health = Healthy | Backpressured | Dead

val health_label : health -> string

(** Per-shard circuit breaker, exposed for deterministic unit tests
    (callers pass [now] explicitly, so the state machine needs no
    sleeping to drive). *)
module Breaker : sig
  type state = Closed | Open | Half_open

  val state_label : state -> string

  type t

  val create : ?failures:int -> ?cooldown:float -> unit -> t
  (** Trip after [failures] consecutive failures (default 5); grant a
      half-open probe after [cooldown] seconds open (default 1). *)

  val state : t -> state

  val admit : t -> now:float -> [ `Yes | `Probe | `No ]
  (** May traffic flow now?  [`Probe] grants exactly one trial request;
      a probe that never reports back re-arms after another cooldown. *)

  val success : t -> [ `Closed_now | `Stayed ]
  (** Resets the failure count (Closed) or closes the breaker
      (Half_open).  Ignored while Open — only a probe may close. *)

  val failure : t -> now:float -> [ `Opened | `Stayed ]
end

type config = {
  vnodes : int;  (** ring points per shard *)
  heartbeat_interval : float;  (** seconds between ping sweeps *)
  connect_timeout : float;  (** per-exchange shard socket timeout *)
  pool : int;  (** idle connections kept per shard *)
  retry : Retry.policy;  (** per-request attempt budget *)
  breaker_failures : int;  (** consecutive failures to trip a breaker *)
  breaker_cooldown : float;  (** seconds open before a half-open probe *)
  seed : int;  (** retry-jitter seed *)
}

val default_config : config
(** [{ vnodes = 64; heartbeat_interval = 0.25; connect_timeout = 2.;
      pool = 4; retry = Retry.default; breaker_failures = 5;
      breaker_cooldown = 1.; seed = 0 }] *)

type t

val start :
  ?config:config -> shards:string list -> path:string -> unit ->
  (t, string) result
(** {!Listener.bind} at [path], then start serving and the heartbeat
    thread.  [shards] are the fleet's endpoint socket paths; they do not
    need to be up yet (the heartbeat will find them). *)

val path : t -> string

val shard_health : t -> (string * health) list
(** Current view, in [shards] order. *)

val counters : t -> (string * int) list
(** routed / failovers / spills / unavailable / unhealthy_transitions /
    recoveries / retries / breaker_opens / breaker_probes /
    breaker_closes / deadline_rejected, by name. *)

val breakers : t -> (string * Breaker.state) list
(** Current breaker state per shard, in [shards] order. *)

val stats_json : t -> string

val stop : t -> unit
(** Graceful: stop accepting, finish in-flight requests, close shard
    connections.  Idempotent. *)

val wait : t -> unit
(** Block until {!stop} is called from elsewhere. *)
