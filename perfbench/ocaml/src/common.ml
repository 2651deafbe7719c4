(* Shared helpers: clocks, order statistics, process facts, JSON output. *)

let now = Twq_util.Mclock.now

(* Process CPU seconds, user + sys, summed over every domain and thread
   (getrusage, microsecond resolution). *)
let cpu_seconds = Sys.time

(* Peak resident set size in MiB: "VmHWM:" of /proc/self/status. *)
let peak_rss_mb () =
  let field = "VmHWM:" in
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            let k = String.length field in
            if String.length line > k && String.sub line 0 k = field then
              Scanf.sscanf
                (String.sub line k (String.length line - k))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      scan ())

(* Exact nearest-rank quantile of a sample, q in [0, 1]. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))
  end

let median xs = quantile xs 0.5

(* The median, over consecutive windows of [k] samples, of each window's
   [q]-quantile: a tail that holds in a typical window, which a few
   seconds of host contention cannot move.  Falls back to the plain
   quantile below [k] samples. *)
let windowed_quantile xs ~k q =
  let n = Array.length xs in
  if n < k then quantile xs q
  else median (Array.init (n / k) (fun i -> quantile (Array.sub xs (i * k) k) q))

(* Median seconds per call of [f] over at least 5 calls spanning at least
   0.3 s (at most 2001 calls), after one untimed warm-up call. *)
let time_median f =
  ignore (f ());
  let samples = ref [] in
  let t_start = now () in
  let reps = ref 0 in
  while !reps < 5 || (now () -. t_start < 0.3 && !reps < 2001) do
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    samples := (now () -. t0) :: !samples;
    incr reps
  done;
  median (Array.of_list !samples)

(* ---------------------------------------------------------------- JSON *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Arr of json list

let rec json_to_buffer b = function
  | Num f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          json_to_buffer b (Str k);
          Buffer.add_string b ": ";
          json_to_buffer b v)
        kvs;
      Buffer.add_char b '}'
  | Arr vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          json_to_buffer b v)
        vs;
      Buffer.add_char b ']'

let json_to_string j =
  let b = Buffer.create 256 in
  json_to_buffer b j;
  Buffer.contents b

(* --------------------------------------------------------- accounting *)

(* What happened to every request a workload sent. *)
type tally = {
  mutable sent : int;
  mutable succeeded : int;  (** logits returned and bit-identical *)
  mutable wrong : int;  (** logits returned but not bit-identical *)
  mutable overloaded : int;
  mutable expired : int;
  mutable lost : int;  (** transport failure or no reply *)
  mutable other : int;  (** invalid / closed / failed / unavailable *)
}

let new_tally () =
  {
    sent = 0;
    succeeded = 0;
    wrong = 0;
    overloaded = 0;
    expired = 0;
    lost = 0;
    other = 0;
  }

let tally_json t =
  Obj
    [
      ("sent", Int t.sent);
      ("succeeded", Int t.succeeded);
      ("wrong_logits", Int t.wrong);
      ("overloaded", Int t.overloaded);
      ("expired", Int t.expired);
      ("lost", Int t.lost);
      ("other_rejected", Int t.other);
    ]

let failed t = t.sent - t.succeeded

(* One completed (or refused) request of a timed phase. *)
type record = {
  input : int;  (** index into the run's input pool *)
  latency : float;  (** seconds; from the scheduled arrival when open-loop *)
  logits : float array option;
}

type phase = {
  records : record list;
  marks : (float * float) array;
      (** (time, process CPU seconds) at each completed image (a reply
          with logits), in time order *)
  window : int;  (** completions per throughput window *)
  queue_waits : float array;  (** server-reported, per completed request *)
  services : float array;  (** server-reported compute, per completed request *)
  send_late : float array;
      (** open loop: [sent - due] per request, waiting for a free connection
          included; empty for closed loops *)
  woke_late : float array;
      (** open loop: the generator's oversleep, for the requests whose
          connection was free at their due time *)
}

(* Throughput and CPU per image of a phase: the medians over windows of
   [window] consecutive completed images, so a burst of host contention
   moves a few windows, not the figure.  A stall that hits fewer than half
   the windows therefore does not show.  No completed window reads as a
   throughput of 0. *)
let windowed (p : phase) =
  let n = Array.length p.marks and k = p.window in
  let rates = ref [] and cpus = ref [] in
  let i = ref 0 in
  while !i + k < n do
    let t0, c0 = p.marks.(!i) and t1, c1 = p.marks.(!i + k) in
    if t1 > t0 then begin
      rates := (float_of_int k /. (t1 -. t0)) :: !rates;
      cpus := ((c1 -. c0) /. float_of_int k) :: !cpus
    end;
    i := !i + k
  done;
  let rates = Array.of_list !rates and cpus = Array.of_list !cpus in
  let rate = if Array.length rates = 0 then 0. else median rates in
  (rate, median cpus, Array.length rates)

(* Extra cold starts, each torn down untimed: at least 6 spanning at
   least [span] seconds (at most 50), so the median covers more than one
   period of the host's drift.  A full major collection before each start
   gives every start the same heap and frees the model of the one before,
   so the process never holds two.  Returns the start times. *)
let repeated_setup ~span start stop =
  let samples = ref [] in
  let t_begin = now () in
  let n = ref 0 in
  while !n < 50 && (!n < 6 || now () -. t_begin < span) do
    Gc.full_major ();
    let t0 = now () in
    let r = start () in
    samples := (now () -. t0) :: !samples;
    stop r;
    incr n
  done;
  Array.of_list (List.rev !samples)

(* Bit-for-bit comparison of two logits rows. *)
let same_bits (a : float array) (b : float array) =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)
