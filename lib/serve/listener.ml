(* Wire front end shared by the shard daemon and the router.

   The accept thread polls with select so a stop flag can interrupt it
   (close() alone does not reliably wake a blocked accept).  Handler
   threads block inside [handle] (a shard's batcher, a router's shard
   exchange), so many connections have requests in flight at once. *)

type t = {
  path : string;
  fd : Unix.file_descr;
  mutex : Mutex.t; (* guards [conns] and the fall of [running] *)
  stop_mutex : Mutex.t; (* serializes [stop] *)
  running : bool Atomic.t;
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t; (* by accept number *)
  mutable accept : Thread.t option;
  connections : int Atomic.t;
  frames_in : int Atomic.t;
  frames_out : int Atomic.t;
  decode_errors : int Atomic.t;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let bind path =
  Wire.ignore_sigpipe ();
  (* A stale socket file from a killed daemon blocks bind; remove it. *)
  (try if Sys.file_exists path then Unix.unlink path
   with Unix.Unix_error (_, _, _) | Sys_error _ -> ());
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      match
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64
      with
      | exception Unix.Unix_error (e, _, _) ->
          close_quietly fd;
          Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
      | () ->
          Ok
            {
              path;
              fd;
              mutex = Mutex.create ();
              stop_mutex = Mutex.create ();
              running = Atomic.make true;
              conns = Hashtbl.create 16;
              accept = None;
              connections = Atomic.make 0;
              frames_in = Atomic.make 0;
              frames_out = Atomic.make 0;
              decode_errors = Atomic.make 0;
            })

let path t = t.path

let running t = Atomic.get t.running

let handle_conn t handle fd =
  let dec = Wire.decoder () in
  let rec loop () =
    match Wire.read_frame fd dec with
    | exception Unix.Unix_error (_, _, _) -> ()
    | Error `Eof -> ()
    | Error (`Error _) ->
        (* Framing is lost: drop the connection.  Typed errors stay on
           the client side (see Shard_client). *)
        Atomic.incr t.decode_errors
    | Ok (id, msg) -> (
        Atomic.incr t.frames_in;
        let reply = handle msg in
        (* The request has executed; a fault here loses only the ack,
           which a retrying client must not double-execute around. *)
        match Fault.probe Fault.Reply ~peer:t.path with
        | Some Fault.Refuse -> (
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error (_, _, _) -> ())
        | Some Fault.Drop -> Wire.write_torn_frame fd ~id reply
        | fault -> (
            (match fault with
            | Some (Fault.Stall d | Fault.Delay d) -> Unix.sleepf d
            | _ -> ());
            match Wire.write_frame fd ~id reply with
            | () ->
                Atomic.incr t.frames_out;
                loop ()
            | exception Unix.Unix_error (_, _, _) -> ()))
  in
  loop ()

let accept_loop t handle =
  let rec loop () =
    if running t then
      match Unix.select [ t.fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) -> () (* listener closed *)
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
          match Unix.accept t.fd with
          | exception Unix.Unix_error (_, _, _) -> loop ()
          | fd, _ ->
              let n = Atomic.fetch_and_add t.connections 1 in
              (* A handler leaves the table before closing its socket,
                 so [stop] never shuts down a descriptor number that
                 has been reused. *)
              let serve_conn () =
                Fun.protect
                  ~finally:(fun () ->
                    Mutex.lock t.mutex;
                    Hashtbl.remove t.conns n;
                    Mutex.unlock t.mutex;
                    close_quietly fd)
                  (fun () -> handle_conn t handle fd)
              in
              Mutex.lock t.mutex;
              if running t then begin
                (* Registered under the lock the handler's exit takes,
                   so the entry exists before the handler can remove it. *)
                Hashtbl.replace t.conns n (fd, Thread.create serve_conn ());
                Mutex.unlock t.mutex;
                loop ()
              end
              else begin
                Mutex.unlock t.mutex;
                close_quietly fd
              end)
  in
  loop ()

let serve t handle =
  t.accept <- Some (Thread.create (fun () -> accept_loop t handle) ())

let stats_json t =
  Printf.sprintf
    "{\"connections\": %d, \"frames_in\": %d, \"frames_out\": %d, \
     \"decode_errors\": %d}"
    (Atomic.get t.connections) (Atomic.get t.frames_in)
    (Atomic.get t.frames_out) (Atomic.get t.decode_errors)

let stop t ~abrupt =
  Mutex.lock t.stop_mutex;
  Mutex.lock t.mutex;
  let first = Atomic.exchange t.running false in
  Mutex.unlock t.mutex;
  if first then begin
    Option.iter Thread.join t.accept;
    close_quietly t.fd;
    (try Unix.unlink t.path
     with Unix.Unix_error (_, _, _) | Sys_error _ -> ());
    (* Graceful: half-close the read side so handlers finish the request
       they are on (replies still flow) and then see EOF.  Abrupt (as
       from SIGKILL): full shutdown, so clients see EOF mid-request. *)
    let how = if abrupt then Unix.SHUTDOWN_ALL else Unix.SHUTDOWN_RECEIVE in
    Mutex.lock t.mutex;
    let conns = List.of_seq (Hashtbl.to_seq_values t.conns) in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd how with Unix.Unix_error (_, _, _) -> ())
      conns;
    Mutex.unlock t.mutex;
    List.iter (fun (_, th) -> Thread.join th) conns
  end;
  Mutex.unlock t.stop_mutex

let wait t = Option.iter Thread.join t.accept
