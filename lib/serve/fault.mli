(** Deterministic, seeded fault injection for the serving fleet.

    A fault plan is a list of rules, each tying an injection {e site}
    (a named point in the client or daemon IO path) to a failure kind
    and a per-call probability.  Decisions are drawn from per-rule
    {!Twq_util.Rng} streams derived from one seed, so a chaos run is a
    pure function of [(seed, sequence of probe calls)]: replaying the
    same seed against the same call sequence reproduces the exact same
    fault schedule.  Nothing here touches sockets — call sites ask
    {!probe} for a verdict and enact it themselves (sleep, close,
    truncate a frame), which keeps the layer trivially portable and
    keeps the disabled path at a single [Atomic.get] per IO operation.

    Spec grammar (env [TWQ_FAULT_SPEC], comma-separated rules):

    {v site[peer]:kind=prob[@ms] v}

    - [site]  — [connect] | [send] | [recv] (client side) | [reply]
                (replies written by any daemon, shard or router, through
                {!Listener}; the peer name is the daemon's own socket
                path)
    - [peer]  — optional substring filter on the peer/endpoint name
    - [kind]  — [refuse] (fail before IO), [drop] (sever mid-frame),
                [stall] (block for [ms] before IO), [delay] (add [ms]
                latency; same mechanics as stall, different intent)
    - [prob]  — per-call injection probability in [0,1]
    - [@ms]   — duration in milliseconds for [stall]/[delay]
                (default 100)

    Example: [connect:refuse=0.1,reply[shard2]:stall=1.0@300] refuses
    10% of connects anywhere and stalls every reply written by a daemon
    whose peer name contains ["shard2"] for 300 ms. *)

type site = Connect | Send | Recv | Reply

type kind =
  | Refuse  (** fail the operation before any IO happens *)
  | Stall of float  (** block for the given seconds, then proceed *)
  | Drop  (** sever the connection mid-operation (partial frame) *)
  | Delay of float  (** add the given seconds of latency, then proceed *)

type rule = {
  site : site;
  peer : string option;  (** substring filter on the peer name *)
  kind : kind;
  prob : float;
}

type t

val site_name : site -> string
val kind_name : kind -> string

val parse : string -> (rule list, string) result
(** Parse a spec string (grammar above). [Error msg] pinpoints the
    offending rule. *)

val create : ?seed:int -> rule list -> t
(** Build a plan. Equal [(seed, rules)] yield identical decision
    streams. Default seed [0]. *)

val of_spec : ?seed:int -> string -> (t, string) result

val seed : t -> int
val rules : t -> rule list

val decide : t -> site -> peer:string -> kind option
(** Draw a verdict for one IO operation at [site] against [peer].
    Rules are consulted in order; the first whose site and peer filter
    match and whose coin lands under [prob] wins. [None] means proceed
    normally. Thread-safe; every call advances the matching rules'
    streams exactly once, which is what makes replay deterministic. *)

val counts : t -> (string * int) list
(** Injections performed so far, keyed ["refuse"|"stall"|"drop"|"delay"]. *)

val log : t -> (site * string * kind option) list
(** The decision log in call order (bounded; oldest entries are kept).
    Includes [None] verdicts so two runs can be compared decision-for-
    decision. *)

(** {2 Global hook}

    The fleet's IO paths consult one process-global hook so that fault
    injection needs no plumbing through every constructor. When no plan
    is armed, {!probe} is one [Atomic.get] and a branch. *)

val arm : t -> unit
val disarm : unit -> unit
val active : unit -> t option

val probe : site -> peer:string -> kind option
(** [decide] against the armed plan, or [None] when disarmed. *)

val install_from_env : unit -> t option
(** Arm a plan from [TWQ_FAULT_SPEC] / [TWQ_FAULT_SEED] if the spec
    variable is set; returns the armed plan. @raise Invalid_argument on
    a malformed spec or seed — a chaos run with a typo'd spec must die
    loudly, not run clean. *)
