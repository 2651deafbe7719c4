(* Serving benchmark entry point.

     perfbench.exe prepare --workload W --dir DIR
     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
                       --artifacts DIR --sock-dir DIR --trace-out FILE
                       [--git-rev REV] [--src-digest HEX]

   [prepare] builds, calibrates (and prunes) the workload's model and
   publishes it: input preparation, never timed.  [run] measures one
   workload and prints, as its last line, the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

open Common
module Server = Twq_serve.Server
module Parallel = Twq_util.Parallel
module MK = Twq_winograd.Microkernel
module Int_graph = Twq_nn.Int_graph

(* Set-up is timed repeatedly for at least this many seconds before the
   timed phase and as long again after it, so the median covers two
   moments of the host's drift half a minute apart, and once more for the
   cold start that serves the run. *)
let setup_span = 3.0

(* Untimed requests before the timed phase. *)
let warmup_seconds = 1.0

(* Request ids of the phases: warm-up, untimed-tracing, traced. *)
let warmup_ids = 0
let main_ids = 10_000_000
let traced_ids = 20_000_000

(* ------------------------------------------------------------ serving *)

type serving = {
  run_phase : first_id:int -> seed:int -> float -> tally -> phase;
  stop : unit -> unit;
  graph : unit -> Int_graph.t;  (** loaded on demand, after the timing *)
  batch : int;  (** the batch shape the workload's plans mostly run *)
  mean_batch : unit -> float;  (** mean dispatched batch size so far *)
  fleet : Fleet.fleet option;
}

let load_graph ~artifacts () =
  Models.graph_of_entry
    (Closed.resolve (Closed.open_registry (Models.registry_dir ~artifacts 0)))

(* Mean batch size out of a daemon's stats JSON. *)
let daemon_batches d =
  let s = Server.daemon_stats_json d in
  let key = "\"batch_size\": " in
  let rec find i =
    if i + String.length key > String.length s then (0, 0.)
    else if String.sub s i (String.length key) = key then
      Scanf.sscanf
        (String.sub s (i + String.length key) (String.length s - i - String.length key))
        "{\"count\": %d, \"mean\": %f" (fun n m -> (n, m))
    else find (i + 1)
  in
  find 0

let start_serving (w : Models.workload) ~artifacts ~sock_dir ~inputs =
  match w.Models.mode with
  | Models.Closed { outstanding } ->
      let _, server = Closed.cold_start w ~artifacts in
      {
          run_phase =
            (fun ~first_id ~seed:_ seconds tally ->
              Closed.closed_loop ~server ~inputs ~outstanding ~seconds ~tally
                ~first_id);
          stop = (fun () -> Server.shutdown server);
          graph = load_graph ~artifacts;
          batch = w.Models.max_batch;
          mean_batch =
            (fun () ->
              Twq_serve.Metrics.Histogram.mean
                (Server.metrics server).Twq_serve.Metrics.batch_size
              *. 1e9);
          fleet = None;
        }
  | Models.Open_poisson { rate; _ } ->
      let fleet = Fleet.start w ~artifacts ~sock_dir in
      let conns = min 2 (Domain.recommended_domain_count ()) in
      {
          run_phase =
            (fun ~first_id ~seed seconds tally ->
              Fleet.open_loop ~path:fleet.Fleet.rpath ~inputs ~rate ~seconds ~seed
                ~conns ~deadline:1.0 ~first_id ~tally);
          stop = (fun () -> Fleet.stop fleet);
          graph = load_graph ~artifacts;
          batch = 1;
          mean_batch =
            (fun () ->
              let n, total =
                List.fold_left
                  (fun (n, total) d ->
                    let c, m = daemon_batches d in
                    (n + c, total +. (float_of_int c *. m)))
                  (0, 0.) fleet.Fleet.daemons
              in
              total /. float_of_int (max 1 n));
          fleet = Some fleet;
        }

(* ------------------------------------------------------------ scoring *)

(* Latency samples per window of [latency_p99_ms]: the metric is the
   median over windows of 100 requests of each window's p99, its
   second-slowest request, so the tail of a typical second of
   [fleet-poisson].  A stall confined to fewer than half the windows does
   not move it.  Larger windows give a truer tail that the host decides
   instead: on a shared 2-vCPU VM the median p99 of 1000-request windows
   spread by 0.26 (interquartile range over median) across runs of the
   same code, more than the metric's bound.  The closed loop completes its
   requests in batches of 8 that share one latency; there a window is
   about 12 batches, and its p99 is the slowest of them. *)
let latency_window = 100

type e2e = {
  images_per_s : float;
  cpu_ms_per_image : float;
  latency_p50_ms : float;
  latency_p99_ms : float;
  latency_p99_all_ms : float;  (** over every sample of the phase *)
  latency_windows : int;
  slo_attained : float;
  ok_frac : float;
  completed : int;  (** latency samples *)
  windows : int;  (** throughput / CPU samples *)
}

(* Score a phase against the oracle rows.  A request succeeds only with
   bit-identical logits; the rest of [tally] was filled while sending. *)
let score (w : Models.workload) ~refs ~(tally : tally) (p : phase) =
  let completed = ref 0 and ok = ref 0 and in_budget = ref 0 and lats = ref [] in
  List.iter
    (fun r ->
      match r.logits with
      | None -> ()
      | Some row ->
          incr completed;
          lats := r.latency :: !lats;
          let good =
            match refs.(r.input) with
            | Some expect -> same_bits row expect
            | None -> false
          in
          if good then begin
            incr ok;
            if r.latency <= w.Models.budget then incr in_budget
          end
          else tally.wrong <- tally.wrong + 1)
    p.records;
  tally.succeeded <- tally.succeeded + !ok;
  let n = float_of_int (max 1 (List.length p.records)) in
  let lats = Array.of_list (List.rev !lats) in
  let rate, cpu, windows = windowed p in
  {
    images_per_s = rate;
    cpu_ms_per_image = 1e3 *. cpu;
    windows;
    latency_p50_ms = 1e3 *. quantile lats 0.5;
    latency_p99_ms = 1e3 *. windowed_quantile lats ~k:latency_window 0.99;
    latency_windows = Array.length lats / latency_window;
    latency_p99_all_ms = 1e3 *. quantile lats 0.99;
    slo_attained = float_of_int !in_budget /. n;
    ok_frac = float_of_int !ok /. n;
    completed = !completed;
  }

let e2e_json e =
  Obj
    [
      ("images_per_s", Num e.images_per_s);
      ("cpu_ms_per_image", Num e.cpu_ms_per_image);
      ("latency_p50_ms", Num e.latency_p50_ms);
      ("latency_p99_ms", Num e.latency_p99_ms);
      ("latency_p99_all_ms", Num e.latency_p99_all_ms);
      ("latency_windows", Int e.latency_windows);
      ("slo_attained", Num e.slo_attained);
      ("ok_frac", Num e.ok_frac);
      ("latency_samples", Int e.completed);
      ("throughput_windows", Int e.windows);
    ]

let ms_quantiles xs =
  Obj
    [
      ("p50_ms", Num (1e3 *. quantile xs 0.5));
      ("p99_ms", Num (1e3 *. quantile xs 0.99));
      ("max_ms", Num (1e3 *. quantile xs 1.0));
      ("samples", Int (Array.length xs));
    ]

(* ---------------------------------------------------------------- run *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  artifacts : string;
  sock_dir : string;
  trace_out : string;
  git_rev : string;
  src_digest : string;
}

let host_json o (w : Models.workload) =
  let cfg = MK.config () in
  Obj
    [
      ("workload", Str w.Models.name);
      ("seed", Int o.seed);
      ("seconds", Num o.seconds);
      ("trace", Bool o.trace);
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version);
      ("git_rev", Str o.git_rev);
      ("src_digest", Str o.src_digest);
      ("num_domains", Int (Parallel.num_domains ()));
      ( "microkernel",
        Obj [ ("mr", Int cfg.MK.mr); ("nr", Int cfg.MK.nr); ("kc", Int cfg.MK.kc) ] );
      ("sparse_threshold", Num (MK.sparse_threshold ()));
      ("max_batch", Int w.Models.max_batch);
      ("latency_budget_ms", Num (1e3 *. w.Models.budget));
      ("input_pool", Int w.Models.pool);
    ]

let metric (name, unit, v) = (name, Obj [ ("value", Num v); ("unit", Str unit) ])

let run o =
  let w = Models.find o.workload in
  let inputs = Models.inputs w ~seed:o.seed in
  let start () = start_serving w ~artifacts:o.artifacts ~sock_dir:o.sock_dir ~inputs in
  let stop s = s.stop () in
  let setup_before = repeated_setup ~span:setup_span start stop in
  Gc.full_major ();
  let t0 = now () in
  let serving = start () in
  let first_setup = now () -. t0 in
  let tally = new_tally () in
  ignore
    (serving.run_phase ~first_id:warmup_ids ~seed:(o.seed + 1_000_003)
       warmup_seconds (new_tally ()));
  (* The traced run splits its time between an untraced and a traced
     phase of the same workload; their difference is the tracing cost. *)
  let seconds = if o.trace then o.seconds /. 2. else o.seconds in
  let p = serving.run_phase ~first_id:main_ids ~seed:o.seed seconds tally in
  let traced_phase =
    if not o.trace then None
    else begin
      Spans.arm ();
      let tp =
        serving.run_phase ~first_id:traced_ids ~seed:(o.seed + 1) seconds tally
      in
      Some tp
    end
  in
  let mem_mb = peak_rss_mb () in
  let mean_batch = serving.mean_batch () in
  let graph = serving.graph () in
  let layers =
    if not o.trace then []
    else
      let wire =
        match serving.fleet with
        | Some f -> Layers.wire_metrics f ~inputs
        | None ->
            (* In-process workloads have no wire; probe one throwaway
               shard + router serving the same artifact. *)
            let f = Fleet.start w ~artifacts:o.artifacts ~sock_dir:o.sock_dir in
            Fun.protect
              ~finally:(fun () -> Fleet.stop f)
              (fun () -> Layers.wire_metrics f ~inputs)
      in
      Layers.measure w ~artifacts:o.artifacts ~graph ~inputs ~batch:serving.batch
      @ wire
  in
  serving.stop ();
  Spans.disarm ();
  let setup =
    Array.concat
      [ setup_before; [| first_setup |]; repeated_setup ~span:setup_span start stop ]
  in
  let refs = Models.oracle w graph inputs in
  let e = score w ~refs ~tally p in
  let te = Option.map (score w ~refs ~tally) traced_phase in
  let setup_s = median setup in
  let attempted = tally.sent in
  let failed = Common.failed tally in
  let all_phases = p :: Option.to_list traced_phase in
  let send_late = Array.concat (List.map (fun p -> p.send_late) all_phases) in
  let woke_late = Array.concat (List.map (fun p -> p.woke_late) all_phases) in
  (* The open-loop generator fell behind its schedule when, with a free
     connection, one request in a hundred left more than half the latency
     budget late.  Waiting for a busy connection is the fleet's latency and
     is charged to it, not held against the generator. *)
  let generator_ok =
    Array.length woke_late = 0 || quantile woke_late 0.99 <= w.Models.budget /. 2.
  in
  let info =
    Obj
      ([
         ("host", host_json o w);
         ("untraced", e2e_json e);
         ("setup_s_samples", Arr (Array.to_list (Array.map (fun x -> Num x) setup)));
         ("mem_mb", Num mem_mb);
         ("requests", tally_json tally);
         ("mean_batch", Num mean_batch);
       ]
      @ (match te with Some t -> [ ("traced", e2e_json t) ] | None -> [])
      @
      if Array.length send_late = 0 then []
      else
        [
          ( "generator",
            Obj
              [
                ("send_late", ms_quantiles send_late);
                ("oversleep", ms_quantiles woke_late);
                ("valid", Bool generator_ok);
              ] );
        ])
  in
  print_endline ("info " ^ json_to_string info);
  let metrics =
    match te with
    | None ->
        [
          ("images_per_s", "1/s", e.images_per_s);
          ("cpu_ms_per_image", "ms", e.cpu_ms_per_image);
          ("latency_p50_ms", "ms", e.latency_p50_ms);
          ("latency_p99_ms", "ms", e.latency_p99_ms);
          ("slo_attained", "frac", e.slo_attained);
          ("ok_frac", "frac", e.ok_frac);
          ("setup_s", "s", setup_s);
          ("mem_mb", "MB", mem_mb);
        ]
    | Some t ->
        let tp = Option.get traced_phase in
        let overhead =
          [
            ( "trace.overhead_cpu_pct",
              "%",
              100. *. (t.cpu_ms_per_image -. e.cpu_ms_per_image) /. e.cpu_ms_per_image
            );
            ( "trace.overhead_p50_pct",
              "%",
              100. *. (t.latency_p50_ms -. e.latency_p50_ms) /. e.latency_p50_ms );
          ]
        in
        [
          ("server.service_ms", "ms", 1e3 *. median tp.services);
          ("server.queue_wait_ms", "ms", 1e3 *. median tp.queue_waits);
          ("server.batch_size", "count", mean_batch);
        ]
        @ layers @ overhead
  in
  if o.trace then begin
    let spans = Spans.all () in
    Spans.write_chrome o.trace_out spans;
    Printf.printf "%-44s %8s %12s %12s\n" "span" "count" "median_ms" "self_ms";
    List.iter
      (fun (name, n, med, self) ->
        Printf.printf "%-44s %8d %12.4f %12.3f\n" name n med self)
      (Spans.summary spans);
    Printf.printf "\n%-44s %16s %s\n" "per-layer metric" "value" "unit";
    List.iter
      (fun (name, unit, v) -> Printf.printf "%-44s %16.6g %s\n" name v unit)
      metrics;
    Printf.printf "\nspans: %d written to %s\n" (List.length spans) o.trace_out
  end
  else
    List.iter
      (fun (name, unit, v) -> Printf.printf "%-20s %16.6g %s\n" name v unit)
      metrics;
  (* Outputs are correct when every served logits row matched the oracle
     bit for bit; an open-loop run whose generator fell behind is void. *)
  let correct = tally.wrong = 0 && generator_ok in
  print_endline
    (json_to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj (List.map metric metrics));
          ]));
  if not correct then exit 1

(* ---------------------------------------------------------------- CLI *)

let () =
  let args = Array.to_list Sys.argv in
  let value flag =
    let rec go = function
      | k :: v :: _ when k = flag -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let req flag =
    match value flag with
    | Some v -> v
    | None ->
        prerr_endline ("perfbench: missing " ^ flag);
        exit 2
  in
  match args with
  | _ :: "prepare" :: _ ->
      Models.prepare (Models.find (req "--workload")) ~dir:(req "--dir")
  | _ :: "run" :: _ ->
      run
        {
          workload = req "--workload";
          seed = int_of_string (req "--seed");
          seconds = float_of_string (req "--seconds");
          trace = req "--trace" = "1";
          artifacts = req "--artifacts";
          sock_dir = req "--sock-dir";
          trace_out = req "--trace-out";
          git_rev = Option.value ~default:"none" (value "--git-rev");
          src_digest = Option.value ~default:"none" (value "--src-digest");
        }
  | _ ->
      prerr_endline "usage: perfbench.exe (prepare|run) --workload W ...";
      exit 2
