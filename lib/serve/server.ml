type config = {
  socket_path : string option;
  tcp_port : int option;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  max_connections : int;
  recv_timeout_s : float;
  send_timeout_s : float;
  max_sweep_points : int;
  drain_timeout_s : float;
  fault_injection : bool;
  degraded_crash_threshold : int;
  degraded_window_s : float;
  degraded_cooldown_s : float;
  calibrator : Calibrate.t option;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    workers = 2;
    queue_capacity = 64;
    cache_capacity = 8;
    max_connections = 64;
    recv_timeout_s = 10.0;
    send_timeout_s = 5.0;
    max_sweep_points = 4096;
    drain_timeout_s = 5.0;
    fault_injection = false;
    degraded_crash_threshold = 3;
    degraded_window_s = 10.0;
    degraded_cooldown_s = 5.0;
    calibrator = None;
  }

(* The one exception that is *meant* to escape per-request isolation:
   fault injection proving that a worker death does not kill the daemon. *)
exception Injected_crash

type counters = {
  requests : int Atomic.t;
  ok_replies : int Atomic.t;
  fault_replies : int Atomic.t;
  f_bad_input : int Atomic.t;
  f_numeric : int Atomic.t;
  f_crash : int Atomic.t;
  f_timeout : int Atomic.t;
  f_overload : int Atomic.t;
  protocol_errors : int Atomic.t;
  dropped_replies : int Atomic.t;
  conns_total : int Atomic.t;
  conns_open : int Atomic.t;
}

let make_counters () =
  {
    requests = Atomic.make 0;
    ok_replies = Atomic.make 0;
    fault_replies = Atomic.make 0;
    f_bad_input = Atomic.make 0;
    f_numeric = Atomic.make 0;
    f_crash = Atomic.make 0;
    f_timeout = Atomic.make 0;
    f_overload = Atomic.make 0;
    protocol_errors = Atomic.make 0;
    dropped_replies = Atomic.make 0;
    conns_total = Atomic.make 0;
    conns_open = Atomic.make 0;
  }

type conn = {
  fd : Unix.file_descr;
  write_mutex : Mutex.t;
  mutable dead : bool;  (* peer gone: stop writing replies to it *)
}

type t = {
  cfg : config;
  listeners : Unix.file_descr list;
  pool : Pool.t;
  cache : Profile_cache.t;
  counters : counters;
  started_at : float;
  stopping : bool Atomic.t;
  threads_mutex : Mutex.t;
  mutable conn_threads : Thread.t list;
  mutable conns : conn list;
  mutable runner : Thread.t option;
}

let now () = Unix.gettimeofday ()

(* ---------------------------------------------------------------- *)
(* Reply plumbing. *)

let count_fault c (f : Fault.t) =
  let counter =
    match f with
    | Fault.Bad_input _ -> c.f_bad_input
    | Numeric _ -> c.f_numeric
    | Worker_crash _ -> c.f_crash
    | Timeout _ -> c.f_timeout
    | Overload _ -> c.f_overload
  in
  Atomic.incr counter

let send t conn seq body =
  (match body with
   | Protocol.Ok_reply _ -> Atomic.incr t.counters.ok_replies
   | Protocol.Fault_reply f ->
     Atomic.incr t.counters.fault_replies;
     count_fault t.counters f);
  Mutex.protect conn.write_mutex (fun () ->
      if conn.dead then Atomic.incr t.counters.dropped_replies
      else
        try
          Protocol.write_frame conn.fd Reply
            (Protocol.encode_reply { rp_seq = seq; rp_body = body })
        with Unix.Unix_error _ | Sys_error _ ->
          conn.dead <- true;
          Atomic.incr t.counters.dropped_replies)

let send_fault t conn seq fault = send t conn seq (Protocol.Fault_reply fault)

(* ---------------------------------------------------------------- *)
(* Request handlers. *)

let check_deadline deadline =
  match deadline with
  | Some d when now () > d ->
    raise (Fault.Error (Fault.timeout "per-request deadline exceeded"))
  | _ -> ()

let prediction_kv ?calibrated u pred =
  let cycles, stack =
    match calibrated with
    | None -> (None, Interval_model.cpi_stack pred)
    | Some (stack, cpi) ->
      (Some (cpi *. pred.Interval_model.pr_instructions), stack)
  in
  let ev = Sweep.of_prediction ?cycles u ~index:0 pred in
  let ev = Fault.or_raise (Sweep.check_numeric ev) in
  Protocol.float_kv "cpi" ev.Sweep.sw_cpi
  :: Protocol.float_kv "cycles" ev.sw_cycles
  :: Protocol.float_kv "watts" ev.sw_watts
  :: Protocol.float_kv "seconds" ev.sw_seconds
  :: Protocol.float_kv "energy_j" ev.sw_energy_j
  :: Protocol.float_kv "ed2p" ev.sw_ed2p
  :: List.map
       (fun comp ->
         Protocol.float_kv
           ("stack_" ^ Cpi_stack.to_string comp)
           (Cpi_stack.get stack comp))
       Cpi_stack.all

let do_predict t ~rq_profile ~rq_config ~rq_prefetch =
  let profile = Fault.or_raise (Profile_cache.find t.cache rq_profile) in
  let u = Fault.or_raise (Uarch.of_name rq_config) in
  let u = if rq_prefetch then Uarch.with_prefetcher u true else u in
  let pred = Interval_model.predict u profile in
  let calibrated =
    match t.cfg.calibrator with
    | None -> None
    | Some cal ->
      let stats = Validate.profile_stats profile in
      Some
        (Calibrate.apply_stack cal ~stats u
           (Interval_model.cpi_stack pred, Interval_model.cpi pred))
  in
  Protocol.Ok_reply { rp_op = "predict"; rp_kv = prediction_kv ?calibrated u pred }

let do_sweep t ~deadline ~rq_profile ~rq_space ~rq_offset ~rq_limit =
  let profile = Fault.or_raise (Profile_cache.find t.cache rq_profile) in
  let space = Fault.or_raise (Config_space.find rq_space) in
  let size = Config_space.size space in
  if rq_offset >= size then
    raise
      (Fault.Error
         (Fault.bad_input ~context:"serve"
            (Printf.sprintf "sweep offset %d outside space %s (size %d)"
               rq_offset rq_space size)));
  if rq_limit > t.cfg.max_sweep_points then
    raise
      (Fault.Error
         (Fault.overload
            (Printf.sprintf
               "sweep batch of %d points exceeds per-request cap %d"
               rq_limit t.cfg.max_sweep_points)));
  let n = min rq_limit (size - rq_offset) in
  let eval_point = Sweep.model_evaluator ~profile space in
  let points = ref [] in
  let faulted = ref [] in
  for i = 0 to n - 1 do
    (* Deadlines are cooperative: re-check between points so a heavy
       batch cannot overstay its budget by more than one evaluation. *)
    if i land 63 = 0 then check_deadline deadline;
    let index = rq_offset + i in
    match Sweep.check_numeric (eval_point index) with
    | Ok ev ->
      points :=
        ( "point",
          Printf.sprintf "%d %h %h %h %h %h %h" index ev.Sweep.sw_cpi
            ev.sw_cycles ev.sw_watts ev.sw_seconds ev.sw_energy_j
            ev.sw_ed2p )
        :: !points
    | Error f ->
      faulted :=
        ("fault_point", Printf.sprintf "%d %s" index (Fault.to_line f))
        :: !faulted
  done;
  Protocol.Ok_reply
    {
      rp_op = "sweep";
      rp_kv =
        ("space", rq_space)
        :: ("offset", string_of_int rq_offset)
        :: ("n", string_of_int n)
        :: ("faulted", string_of_int (List.length !faulted))
        :: (List.rev !points @ List.rev !faulted);
    }

let health_kv t =
  let ps = Pool.stats t.pool in
  let cs = Profile_cache.stats t.cache in
  let c = t.counters in
  let lookups = cs.hits + cs.misses in
  let hit_rate =
    if lookups = 0 then 1.0 else float_of_int cs.hits /. float_of_int lookups
  in
  let i k v = (k, string_of_int v) in
  let a k at = (k, string_of_int (Atomic.get at)) in
  [
    ("uptime_s", Printf.sprintf "%.3f" (now () -. t.started_at));
    i "queue_depth" ps.queue_depth;
    i "inflight" ps.inflight;
    i "workers" ps.workers;
    i "submitted" ps.submitted;
    i "completed" ps.completed;
    i "shed" ps.shed;
    i "crashes" ps.crashes;
    i "respawns" ps.respawns;
    i "degraded_entries" ps.degraded_entries;
    ("degraded", string_of_bool ps.degraded_now);
    i "cache_resident" cs.resident;
    i "cache_hits" cs.hits;
    i "cache_misses" cs.misses;
    i "cache_loads" cs.loads;
    i "cache_evictions" cs.evictions;
    ("cache_hit_rate", Printf.sprintf "%.6f" hit_rate);
    a "requests" c.requests;
    a "ok_replies" c.ok_replies;
    a "fault_replies" c.fault_replies;
    a "faults_bad_input" c.f_bad_input;
    a "faults_numeric" c.f_numeric;
    a "faults_crash" c.f_crash;
    a "faults_timeout" c.f_timeout;
    a "faults_overload" c.f_overload;
    a "protocol_errors" c.protocol_errors;
    a "dropped_replies" c.dropped_replies;
    a "connections_open" c.conns_open;
    a "connections_total" c.conns_total;
  ]

(* Run one admitted request on a worker.  Everything except an injected
   crash is caught here and answered as a structured fault — this is the
   per-request isolation boundary. *)
let run_job t conn seq ~deadline work =
  try
    check_deadline deadline;
    let reply = work () in
    send t conn seq reply
  with
  | Injected_crash as e ->
    (* Acknowledge first so the client is not left hanging, then let the
       exception kill this worker and exercise the supervisor. *)
    send t conn seq
      (Protocol.Ok_reply
         { rp_op = "crash"; rp_kv = [ ("note", "worker dying as requested") ] });
    raise e
  | Fault.Error f -> send_fault t conn seq f
  | exn ->
    send_fault t conn seq
      (Fault.worker_crash exn (Printexc.get_raw_backtrace ()))

let handle_request t conn (env : Protocol.envelope) =
  Atomic.incr t.counters.requests;
  let seq = env.rq_seq in
  let deadline =
    Option.map
      (fun ms -> now () +. (float_of_int ms /. 1000.))
      env.rq_timeout_ms
  in
  let admit ~heavy work =
    match Pool.submit t.pool ~heavy (fun () -> run_job t conn seq ~deadline work) with
    | Ok () -> ()
    | Error f -> send_fault t conn seq f
  in
  match env.rq_body with
  | Ping ->
    send t conn seq (Protocol.Ok_reply { rp_op = "pong"; rp_kv = [] })
  | Health ->
    (* Served inline on the connection thread: health must answer even
       when the queue is full or the pool degraded — that is its job. *)
    send t conn seq (Protocol.Ok_reply { rp_op = "health"; rp_kv = health_kv t })
  | Load bytes ->
    admit ~heavy:false (fun () ->
        let key = Fault.or_raise (Profile_cache.load t.cache bytes) in
        Protocol.Ok_reply { rp_op = "load"; rp_kv = [ ("profile", key) ] })
  | Predict { rq_profile; rq_config; rq_prefetch } ->
    admit ~heavy:false (fun () ->
        do_predict t ~rq_profile ~rq_config ~rq_prefetch)
  | Sweep { rq_profile; rq_space; rq_offset; rq_limit } ->
    admit ~heavy:true (fun () ->
        do_sweep t ~deadline ~rq_profile ~rq_space ~rq_offset ~rq_limit)
  | Crash ->
    if t.cfg.fault_injection then admit ~heavy:false (fun () -> raise Injected_crash)
    else
      send_fault t conn seq
        (Fault.bad_input ~context:"serve"
           "crash injection disabled (start with --fault-injection)")

(* ---------------------------------------------------------------- *)
(* Connection loop. *)

let conn_loop t conn =
  let should_stop () = Atomic.get t.stopping in
  let rec loop () =
    match Protocol.read_frame ~should_stop conn.fd with
    | Error Closed -> ()
    | Error (Corrupt f) ->
      (* Well-framed but corrupt: the stream is still in sync, so fault
         and keep serving this connection. *)
      Atomic.incr t.counters.protocol_errors;
      send_fault t conn 0 f;
      loop ()
    | Error (Desync f) ->
      Atomic.incr t.counters.protocol_errors;
      send_fault t conn 0 f
    | Ok (Reply, _) ->
      Atomic.incr t.counters.protocol_errors;
      send_fault t conn 0
        (Fault.bad_input ~context:"protocol" "unexpected reply frame");
      loop ()
    | Ok (Request, payload) ->
      (match Protocol.decode_request payload with
       | Error f ->
         Atomic.incr t.counters.protocol_errors;
         send_fault t conn 0 f;
         loop ()
       | Ok env ->
         handle_request t conn env;
         loop ())
  in
  (try loop () with _ -> ());
  Mutex.protect conn.write_mutex (fun () -> conn.dead <- true);
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Atomic.decr t.counters.conns_open

(* ---------------------------------------------------------------- *)
(* Lifecycle. *)

let bind_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let bind_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let create cfg =
  if cfg.socket_path = None && cfg.tcp_port = None then
    Error
      (Fault.bad_input ~context:"serve"
         "no listener configured: need a socket path or a TCP port")
  else
    Fault.protect ~context:"serve" (fun () ->
        (* SIGPIPE would kill the daemon on any write to a vanished
           client; we want EPIPE and a counted drop instead. *)
        ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
        let listeners =
          List.filter_map Fun.id
            [
              Option.map bind_unix cfg.socket_path;
              Option.map bind_tcp cfg.tcp_port;
            ]
        in
        {
          cfg;
          listeners;
          pool =
            Pool.create
              {
                Pool.workers = cfg.workers;
                queue_capacity = cfg.queue_capacity;
                degraded_crash_threshold = cfg.degraded_crash_threshold;
                degraded_window_s = cfg.degraded_window_s;
                degraded_cooldown_s = cfg.degraded_cooldown_s;
              };
          cache = Profile_cache.create ~capacity:cfg.cache_capacity;
          counters = make_counters ();
          started_at = now ();
          stopping = Atomic.make false;
          threads_mutex = Mutex.create ();
          conn_threads = [];
          conns = [];
          runner = None;
        })

let accept_one t listen_fd =
  match Unix.accept ~cloexec:true listen_fd with
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ()
  | fd, _addr ->
    Atomic.incr t.counters.conns_total;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.recv_timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.send_timeout_s;
    let conn = { fd; write_mutex = Mutex.create (); dead = false } in
    if Atomic.get t.counters.conns_open >= t.cfg.max_connections then begin
      send_fault t conn 0
        (Fault.overload
           (Printf.sprintf "connection limit %d reached" t.cfg.max_connections));
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else begin
      Atomic.incr t.counters.conns_open;
      let th = Thread.create (fun () -> conn_loop t conn) () in
      Mutex.protect t.threads_mutex (fun () ->
          t.conn_threads <- th :: t.conn_threads;
          t.conns <- conn :: t.conns)
    end

let run t =
  while not (Atomic.get t.stopping) do
    match Unix.select t.listeners [] [] 0.2 with
    | ready, _, _ -> List.iter (accept_one t) ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Graceful drain: stop accepting, finish queued + in-flight work (the
     replies go out over still-open connections), then wake the readers
     and join them. *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  ignore (Pool.drain t.pool ~timeout_s:t.cfg.drain_timeout_s);
  let conns, threads =
    Mutex.protect t.threads_mutex (fun () -> (t.conns, t.conn_threads))
  in
  List.iter
    (fun conn ->
      try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error _ -> ())
    conns;
  List.iter Thread.join threads;
  Pool.shutdown t.pool;
  match t.cfg.socket_path with
  | Some path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()

let stop t = Atomic.set t.stopping true

let start cfg =
  match create cfg with
  | Error _ as e -> e
  | Ok t ->
    t.runner <- Some (Thread.create run t);
    Ok t

let join t =
  match t.runner with
  | Some th -> Thread.join th
  | None -> ()
