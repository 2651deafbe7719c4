(** Dynamic-batching inference server with admission control.

    Requests are single images [| c; h; w |]; the server coalesces up to
    [max_batch] of them (holding the batch window at most [max_delay]
    seconds) into one batched forward pass and hands each request its own
    logits row — bit-identical to running that request alone.

    Admission control: the queue is bounded by [capacity]; overflow sheds
    with {!Rejected_overload}.  Requests carry optional relative
    deadlines; ones that expire before compute dispatch get
    {!Deadline_expired}.  No function raises across this API — malformed
    inputs, post-shutdown submits and model exceptions all surface as
    typed outcomes.

    With [workers = 1] (default) the compute worker uses the global
    {!Twq_util.Parallel} pool inside kernels; with more workers each
    batch runs under [Parallel.sequential] and the workers provide the
    parallelism between batches. *)

type config = {
  max_batch : int;
  max_delay : float;  (** seconds the batch window stays open *)
  capacity : int;  (** request-queue bound; overflow sheds *)
  workers : int;  (** compute worker domains *)
  default_deadline : float option;  (** relative seconds, per request *)
}

val default_config : config
(** [{ max_batch = 8; max_delay = 0.002; capacity = 64; workers = 1;
      default_deadline = None }] *)

type outcome =
  | Output of Twq_tensor.Tensor.t  (** logits row, shape [| classes |] *)
  | Rejected_overload  (** queue was full at submit *)
  | Deadline_expired  (** deadline passed before compute dispatch *)
  | Rejected_invalid of string  (** input shape mismatch *)
  | Rejected_closed  (** submitted after shutdown *)
  | Failed of string  (** exception escaped the model *)

val outcome_label : outcome -> string

type t
type ticket

val start :
  ?config:config -> model:(unit -> Model.t) -> input_dims:int array -> unit -> t
(** Spawn the worker domains.  [model] is resolved once per batch, so a
    registry-backed resolver hot-swaps versions between batches.
    @raise Invalid_argument on malformed [input_dims] or [workers < 1]. *)

val for_model : ?config:config -> Model.t -> input_dims:int array -> unit -> t
(** [start] with a constant model. *)

val submit : ?deadline:float -> t -> Twq_tensor.Tensor.t -> ticket
(** Non-blocking; sheds (typed) instead of waiting.  [deadline] is in
    relative seconds and overrides [config.default_deadline]. *)

val await : ticket -> outcome
(** Block until the request completes. *)

val peek : ticket -> outcome option
(** Non-blocking completion check. *)

val infer : ?deadline:float -> t -> Twq_tensor.Tensor.t -> outcome
(** [submit] then [await]. *)

val metrics : t -> Metrics.t
val queue_depth : t -> int
val config : t -> config

val shutdown : t -> unit
(** Graceful drain: close admission, let workers finish every queued
    request, join the worker domains.  Idempotent. *)

val timings : ticket -> (float * float) option
(** [(queue_wait, service)] phase durations in seconds for a completed
    ticket that reached compute dispatch; [None] for pending tickets and
    ones rejected before dispatch.  These are what the daemon reports in
    {!Wire.Logits}. *)

(** {2 Wire daemon}

    The server exposed on a Unix-domain socket through {!Listener}.
    Its per-connection handler threads block while their request is
    batched, so the dynamic batcher coalesces requests across
    connections.

    The daemon serves one model at a time out of its {!Registry}:
    [Publish] frames stage artifacts without disturbing serving;
    [Activate] flips the registry's active pointer and swaps the serving
    model between batches (restarting the server only when the input
    dims change).  On startup it serves the newest artifact of the first
    registered name, pinning that version active — the recovery path for
    a shard restarted after a crash. *)

type daemon

val listen :
  ?config:config -> registry:Registry.t -> path:string -> unit ->
  (daemon, string) result
(** {!Listener.bind} at [path], load the recovery model, then start
    accepting.  [config] applies to the underlying batching server. *)

val daemon_path : daemon -> string

val daemon_draining : daemon -> bool

val daemon_stats_json : daemon -> string
(** Serving name/version, wire counters (connections, frames in/out,
    decode errors) and the full server metrics snapshot, as JSON. *)

val stop_daemon : daemon -> unit
(** Graceful drain: stop accepting, let every in-flight request complete
    and its reply flush, then shut the server down.  Idempotent. *)

val kill_daemon : daemon -> unit
(** Abrupt teardown for chaos tests: connections are severed immediately
    (clients see EOF mid-request, as with a SIGKILLed process), then
    resources are reclaimed.  Idempotent. *)

val wait_daemon : daemon -> unit
(** Block until the daemon stops accepting (i.e. until {!stop_daemon} or
    {!kill_daemon} is called from another thread or a signal handler). *)
