(** The wire front end of a daemon: {!Wire} frames served on a
    Unix-domain socket.  The shard daemon ({!Server.listen}) and the
    router ({!Router.start}) both serve through it and differ only in
    the [handle] function they pass to {!serve}.

    One accept thread; one handler thread per connection, which reads a
    frame, calls [handle], probes the {!Fault.Reply} site (peer name:
    the socket path) and writes the reply with the echoed request id.
    A frame that breaks framing drops its connection without a reply. *)

type t

val bind : string -> (t, string) result
(** Remove a stale socket file at the path, then bind and listen on it.
    Also makes sure SIGPIPE is ignored ({!Wire.ignore_sigpipe}).  Errors
    read ["<path>: <reason>"]. *)

val serve : t -> (Wire.msg -> Wire.msg) -> unit
(** Start the accept thread; every connection's frames go to the
    handler.  Call once. *)

val path : t -> string

val running : t -> bool
(** [true] until {!stop} is called. *)

val stats_json : t -> string
(** The wire counters as one JSON object:
    [{"connections": _, "frames_in": _, "frames_out": _,
    "decode_errors": _}]. *)

val stop : t -> abrupt:bool -> unit
(** Stop accepting, close the socket and unlink its path, then shut
    every connection down and join its handler.  Graceful
    ([abrupt = false]) shuts only the receive side, so the request each
    handler is on completes and its reply is written; abrupt shuts both
    sides, as a killed process would.  Idempotent; a concurrent call
    returns once the first has finished. *)

val wait : t -> unit
(** Block until the accept thread has exited, i.e. until {!stop}. *)
