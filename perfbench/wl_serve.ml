(* serve_mixed: an in-process Server on a Unix socket with nproc - 1 pool
   workers, driven by nproc client connections in a closed loop (the
   daemon's callers are DSE scripts that wait for each reply).  The
   workers' domains and the main one, which runs the clients and the
   connection threads, are then nproc in all: every minor collection
   stops all domains, and with more domains than CPUs it waits for one the
   host has descheduled.  On 2 vCPUs, 1 worker served 7-17% more requests
   per second than 2 in four alternating pairs of runs.  The mix
   is mostly predicts of seeded design-point names over a hot set of 4
   profiles, some 256-point sweep slices, and a few uploads cycling
   through 12 further profiles: more than the cache's capacity of 8, so
   loads evict and re-prepare, and grow the model's never-evicting memo.
   Wire, queueing and cache layers dominate; evaluation per request is
   small. *)

let hot_benchmarks = [| "gcc"; "mcf"; "libquantum"; "gobmk" |]
let pool_size = 12
let n_instructions = 100_000
let sweep_points = 256
let sweep_space = Config_space.large

(* Sweep requests revisit a seeded set of slices, as a DSE script
   refining a few regions does; the warm-up then reaches a steady state. *)
let sweep_slices = 32

(* One cycle of a client's closed loop, shuffled per cycle. *)
let cycle_predicts = 498
let cycle_sweeps = 2

(* Each client uploads a profile at a fixed interval, staggered across
   clients, so the number of loads, and the memory they leave behind, is
   set by the run's length rather than by its throughput. *)
let load_interval_s = 2.0
let checked_sweeps_per_client = 8
let health_every = 64
let setup_reps = 2  (* at the start of the run, and as many again at its end *)

(* The daemon's steady state is warm: its per-worker memo fills on the
   first requests for each (profile, design) pair. *)
let warmup_seconds = 5.0

let ok what = Report.ok "serve_mixed" what

(* [Report.same] without the allocation, for use inside the timed loop. *)
let same_prediction (a : Client.prediction) (b : Client.prediction) =
  let eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  eq a.pr_cpi b.pr_cpi && eq a.pr_cycles b.pr_cycles && eq a.pr_watts b.pr_watts
  && eq a.pr_seconds b.pr_seconds && eq a.pr_energy_j b.pr_energy_j && eq a.pr_ed2p b.pr_ed2p
  && List.equal (fun (k, x) (k', y) -> String.equal k k' && eq x y) a.pr_stack b.pr_stack

let pool_benchmarks =
  Array.of_list
    (List.filteri
       (fun i _ -> i < pool_size)
       (List.filter (fun b -> not (Array.mem b hot_benchmarks)) Benchmarks.names))

let design_names = Array.of_list (List.map (fun u -> u.Uarch.name) Uarch.design_space)

type env = {
  hot : string array;  (** binary profile bytes *)
  slices : int array;  (** sweep offsets *)
  pool : string array;
  keys : string array;  (** server content keys of [hot] *)
  server : Server.t;
  clients : Client.t array;
  sock : string;
}

let nproc = Domain.recommended_domain_count ()
let workers = max 1 (nproc - 1)

let setup ~seed ~sock () =
  let bytes b =
    Profile_io.to_binary_string (Profiler.profile (Benchmarks.find b) ~seed ~n_instructions)
  in
  let hot = Array.map bytes hot_benchmarks in
  let pool = Array.map bytes pool_benchmarks in
  let server =
    ok "start"
      (Server.start { Server.default_config with socket_path = Some sock; workers; recv_timeout_s = 1.0 })
  in
  let clients = Array.init nproc (fun _ -> ok "connect" (Client.connect_unix sock)) in
  let keys = Array.map (fun b -> ok "load hot" (Client.load clients.(0) b)) hot in
  let rng = Rng.create seed in
  let slices = Array.init sweep_slices (fun _ -> Rng.int rng (Config_space.size sweep_space - sweep_points)) in
  { hot; slices; pool; keys; server; clients; sock }

let teardown env =
  Array.iter Client.close env.clients;
  Server.stop env.server;
  Server.join env.server;
  try Sys.remove env.sock with Sys_error _ -> ()

(* A growable float buffer for latency samples. *)
type buf = { mutable a : float array; mutable len : int }

let buf () = { a = Array.make 4096 0.0; len = 0 }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * b.len) 0.0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.a 0 b.len

type client_log = {
  done_at : buf;  (** completion time of every successful request *)
  predict_lat : buf;
  sweep_lat : buf;
  load_lat : buf;
  mutable completed : int;
  mutable failed : int;
  predicts : (int * int, Client.prediction) Hashtbl.t;  (** first reply per (hot, design name) *)
  mutable predicts_differing : int;  (** later replies unlike the first for their pair *)
  mutable sweeps : (int * int * Client.sweep_point list) list;  (** hot, offset, reply *)
  mutable queue_depth_max : int;
}

type op = Predict | Sweep_slice

let client_loop env ~seed ~ci ~start ~deadline ~traced =
  let c = env.clients.(ci) in
  let rng = Rng.create ((seed * 7919) + ci + 1) in
  let log =
    {
      done_at = buf (); predict_lat = buf (); sweep_lat = buf (); load_lat = buf (); completed = 0; failed = 0;
      predicts = Hashtbl.create 1024; predicts_differing = 0; sweeps = []; queue_depth_max = 0;
    }
  in
  let cycle =
    Array.append (Array.make cycle_predicts Predict) (Array.make cycle_sweeps Sweep_slice)
  in
  let load_cursor = ref (ci * pool_size / nproc) in
  let next_load = ref (start +. (load_interval_s *. float_of_int ci /. float_of_int nproc)) in
  let n = ref 0 in
  let outcome lat dt = function
    | Ok _ ->
      push lat dt;
      push log.done_at (Timing.now ());
      log.completed <- log.completed + 1
    | Error _ -> log.failed <- log.failed + 1
  in
  while Timing.now () < deadline do
    Rng.shuffle rng cycle;
    Array.iter
      (fun op ->
        if Timing.now () < deadline then begin
          incr n;
          (match op with
          | Predict ->
            let h = Rng.int rng (Array.length env.keys) and d = Rng.int rng (Array.length design_names) in
            let res, dt =
              Timing.span (fun () -> Client.predict c ~profile:env.keys.(h) ~config:design_names.(d) ())
            in
            outcome log.predict_lat dt res;
            Result.iter
              (fun p ->
                match Hashtbl.find_opt log.predicts (h, d) with
                | None -> Hashtbl.replace log.predicts (h, d) p
                | Some first ->
                  if not (same_prediction first p) then
                    log.predicts_differing <- log.predicts_differing + 1)
              res
          | Sweep_slice ->
            let h = Rng.int rng (Array.length env.keys) in
            let offset = env.slices.(Rng.int rng sweep_slices) in
            let res, dt =
              Timing.span (fun () ->
                  Client.sweep c ~profile:env.keys.(h) ~space:(Config_space.name sweep_space) ~offset
                    ~limit:sweep_points ())
            in
            (* A reply with faulted points counts as failed. *)
            let res = match res with Ok (points, 0) -> Ok points | Ok _ | Error _ -> Error () in
            outcome log.sweep_lat dt res;
            (match res with
            | Ok points when List.length log.sweeps < checked_sweeps_per_client ->
              log.sweeps <- (h, offset, points) :: log.sweeps
            | _ -> ()));
          if Timing.now () >= !next_load then begin
            let bytes = env.pool.(!load_cursor mod pool_size) in
            incr load_cursor;
            next_load := !next_load +. load_interval_s;
            let res, dt = Timing.span (fun () -> Client.load c bytes) in
            outcome log.load_lat dt res
          end;
          if traced && !n mod health_every = 0 then
            match Client.health c with
            | Ok kv ->
              let depth = int_of_string (List.assoc "queue_depth" kv) in
              log.queue_depth_max <- max log.queue_depth_max depth
            | Error _ -> log.failed <- log.failed + 1
        end)
      cycle
  done;
  log

type phase = {
  logs : client_log list;
  completed : int;
  qps : float;  (** median over one-second windows of completed requests *)
  predict_lat : float array;
}

let run_phase (r : Report.t) env ~seed ~seconds ~traced =
  let t0 = Timing.now () in
  let deadline = t0 +. seconds in
  let results = Array.make (Array.length env.clients) None in
  let threads =
    List.init (Array.length env.clients) (fun ci ->
        Thread.create
          (fun () -> results.(ci) <- Some (client_loop env ~seed ~ci ~start:t0 ~deadline ~traced))
          ())
  in
  List.iter Thread.join threads;
  let logs = List.map Option.get (Array.to_list results) in
  (* Completions per whole second of the phase; the median window is
     robust to a stall that holds up a few seconds of a run. *)
  let windows = Array.make (max 1 (int_of_float seconds)) 0 in
  List.iter
    (fun (l : client_log) ->
      Array.iter
        (fun t ->
          let w = int_of_float (t -. t0) in
          if w < Array.length windows then windows.(w) <- windows.(w) + 1)
        (contents l.done_at))
    logs;
  let completed = List.fold_left (fun a (l : client_log) -> a + l.completed) 0 logs in
  let failed = List.fold_left (fun a (l : client_log) -> a + l.failed) 0 logs in
  Report.ops r ~attempted:(completed + failed) ~failed;
  {
    logs;
    completed;
    qps = Timing.median (Array.map float_of_int windows);
    predict_lat = Array.concat (List.map (fun (l : client_log) -> contents l.predict_lat) logs);
  }

let all f logs = Array.concat (List.map (fun l -> contents (f l)) logs)

(* The daemon's answers must be bit-exact against the in-process model on
   the same profile bytes. *)
let check_outputs (r : Report.t) ~label env (logs : client_log list) =
  let profiles = Array.map (fun b -> ok "decode" (Profile_io.of_string b)) env.hot in
  let expected = Hashtbl.create 1024 in
  let expect h d =
    match Hashtbl.find_opt expected (h, d) with
    | Some p -> p
    | None ->
      let u = ok "config" (Uarch.of_name design_names.(d)) in
      let pred = Interval_model.predict u profiles.(h) in
      let ev = Sweep.of_prediction u ~index:0 pred in
      let stack = Interval_model.cpi_stack pred in
      let p =
        {
          Client.pr_cpi = ev.sw_cpi;
          pr_cycles = ev.sw_cycles;
          pr_watts = ev.sw_watts;
          pr_seconds = ev.sw_seconds;
          pr_energy_j = ev.sw_energy_j;
          pr_ed2p = ev.sw_ed2p;
          pr_stack = List.map (fun c -> (Cpi_stack.to_string c, Cpi_stack.get stack c)) Cpi_stack.all;
        }
      in
      Hashtbl.replace expected (h, d) p;
      p
  in
  (* Each client kept its first reply per (profile, design) pair and
     counted later replies that differed from it. *)
  let bad =
    List.fold_left
      (fun acc l ->
        Hashtbl.fold
          (fun (h, d) first acc -> if same_prediction first (expect h d) then acc else acc + 1)
          l.predicts (acc + l.predicts_differing))
      0 logs
  in
  let replies = List.fold_left (fun acc (l : client_log) -> acc + l.predict_lat.len) 0 logs in
  Report.check r (label ^ "predict_replies_bit_exact") ~checked:replies ~mismatched:bad;
  let sweeps = List.concat_map (fun l -> l.sweeps) logs in
  let sweep_ok (h, offset, points) =
    List.length points = sweep_points
    && List.for_all
         (fun (p : Client.sweep_point) ->
           let i = p.sp_index in
           let u = Config_space.config_of_index sweep_space i in
           let ev = Sweep.of_prediction u ~index:i (Interval_model.predict u profiles.(h)) in
           i >= offset && i < offset + sweep_points
           && Report.same p
                {
                  Client.sp_index = i;
                  sp_cpi = ev.sw_cpi;
                  sp_cycles = ev.sw_cycles;
                  sp_watts = ev.sw_watts;
                  sp_seconds = ev.sw_seconds;
                  sp_energy_j = ev.sw_energy_j;
                  sp_ed2p = ev.sw_ed2p;
                })
         points
  in
  Report.check r (label ^ "sweep_slices_bit_exact") ~checked:(List.length sweeps)
    ~mismatched:(List.length (List.filter (fun s -> not (sweep_ok s)) sweeps));
  (* Median in-process predict over the (profile, design) pairs the
     daemon answered, warm: the evaluation share of client.predict_us. *)
  let pairs = Hashtbl.fold (fun k _ acc -> k :: acc) expected [] in
  let eval_once (h, d) =
    let u = ok "config" (Uarch.of_name design_names.(d)) in
    snd (Timing.span (fun () -> Interval_model.predict u profiles.(h)))
  in
  Timing.median (Array.of_list (List.map eval_once pairs))

let health_int kv k = int_of_string (List.assoc k kv)

(* Protocol costs on the workload's own payloads: predict requests as the
   client frames them, and the daemon's real predict replies. *)
let protocol_costs env ~seed =
  let c = env.clients.(0) in
  let rng = Rng.create (seed + 2) in
  let n = 256 in
  let envelopes =
    Array.init n (fun k ->
        {
          Protocol.rq_seq = 1_000_000 + k;
          rq_timeout_ms = None;
          rq_body =
            Predict
              {
                rq_profile = env.keys.(Rng.int rng (Array.length env.keys));
                rq_config = design_names.(Rng.int rng (Array.length design_names));
                rq_prefetch = false;
              };
        })
  in
  let _, encode_s =
    Timing.span (fun () -> Array.map (fun e -> Protocol.frame Request (Protocol.encode_request e)) envelopes)
  in
  let replies =
    Array.map
      (fun e ->
        Protocol.write_frame (Client.fd c) Request (Protocol.encode_request e);
        match Protocol.read_frame (Client.fd c) with
        | Ok (Reply, payload) -> Protocol.frame Reply payload
        | Ok (Request, _) | Error _ -> failwith "serve_mixed: raw predict reply lost")
      envelopes
  in
  let decoded, decode_s =
    Timing.span (fun () ->
        Array.map
          (fun f ->
            match Protocol.decode_frame f with
            | Ok (_, payload, _) -> Protocol.decode_reply payload
            | Error e -> Error e)
          replies)
  in
  let bad = Array.fold_left (fun k d -> match d with Ok { Protocol.rp_body = Ok_reply _; _ } -> k | _ -> k + 1) 0 decoded in
  (1e6 *. encode_s /. float_of_int n, 1e6 *. decode_s /. float_of_int n, n, bad)

let run (r : Report.t) ~seed ~seconds ~scratch =
  let sock = Filename.concat scratch (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (* [setup_reps] set-ups, each stopping the last one's server first; the
     latest one's is left running. *)
  let set_ups () =
    let latest = ref None in
    let times =
      Array.init setup_reps (fun _ ->
          Option.iter teardown !latest;
          let env, dt = Timing.span (setup ~seed ~sock) in
          latest := Some env;
          dt)
    in
    (Option.get !latest, times)
  in
  let env, first_setups = set_ups () in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () ->
      ignore (run_phase r env ~seed:(seed + 3) ~seconds:warmup_seconds ~traced:false);
      let ph = run_phase r env ~seed ~seconds ~traced:false in
      let qps = ph.qps in
      let p50_us = 1e6 *. Timing.median ph.predict_lat in
      Report.e2e r "throughput_per_s" qps;
      Report.e2e r "latency_us" p50_us;
      Report.named r "serve_qps" qps "1/s";
      Report.named r "serve_predict_p50_us" p50_us "us";
      Report.named r "serve_predict_p99_us" (1e6 *. Timing.percentile ph.predict_lat 99.0) "us";
      Report.timing r "client.predict_s" "s" ph.predict_lat;
      Report.timing r "client.sweep_s" "s" (all (fun l -> l.sweep_lat) ph.logs);
      Report.timing r "client.load_s" "s" (all (fun l -> l.load_lat) ph.logs);
      let eval_s = check_outputs r ~label:"" env ph.logs in
      if r.trace then begin
        let c0 = Statstack.construction_count () in
        let h0 = ok "health" (Client.health env.clients.(0)) in
        let tr = run_phase r env ~seed:(seed + 1) ~seconds ~traced:true in
        let h1 = ok "health" (Client.health env.clients.(0)) in
        let constructions = Statstack.construction_count () - c0 in
        ignore (check_outputs r ~label:"traced_" env tr.logs);
        let delta k = float_of_int (health_int h1 k - health_int h0 k) in
        let med f = 1e6 *. Timing.median (all f tr.logs) in
        let client_predict_us = 1e6 *. Timing.median tr.predict_lat in
        Report.layer r "client.predict_us" client_predict_us;
        Report.layer r "client.sweep_us" (med (fun l -> l.sweep_lat));
        Report.layer r "client.load_us" (med (fun l -> l.load_lat));
        Report.layer r "serve.wire_queue_us" (client_predict_us -. (1e6 *. eval_s));
        Report.layer r "serve.shed" (delta "shed");
        Report.layer r "serve.crashes" (delta "crashes");
        Report.layer r "serve.cache_evictions" (delta "cache_evictions");
        let hits = delta "cache_hits" and misses = delta "cache_misses" in
        Report.layer r "serve.cache_hit_rate" (if hits +. misses > 0.0 then hits /. (hits +. misses) else 1.0);
        Report.layer r "serve.queue_depth_max"
          (float_of_int (List.fold_left (fun a l -> max a l.queue_depth_max) 0 tr.logs));
        Report.layer r "statstack.constructions" (float_of_int constructions);
        let encode_us, decode_us, n, bad = protocol_costs env ~seed in
        Report.check r "raw_predict_replies_decode" ~checked:n ~mismatched:bad;
        Report.layer r "protocol.encode_us" encode_us;
        Report.layer r "protocol.decode_us" decode_us;
        (* Preparing one upload, as the cache does on every miss. *)
        let prepare_s =
          Timing.median
            (Array.map
               (fun b ->
                 let p = ok "decode" (Profile_io.of_string b) in
                 snd (Timing.span (fun () -> Profile.prepare p)))
               env.pool)
        in
        Report.layer r "profile.prepare_s" prepare_s;
        Report.layer r "trace.throughput_delta_per_s" (tr.qps -. qps);
        Report.layer r "trace.latency_delta_us" (client_predict_us -. p50_us)
      end);
  (* The second half of the set-ups, so that setup_s, their median, samples
     the host at both ends of the run. *)
  let env, last_setups = set_ups () in
  teardown env;
  Report.e2e r "setup_s" (Timing.median (Array.append first_setups last_setups));
  Report.size r "hot_profiles" (String.concat "," (Array.to_list hot_benchmarks));
  Report.size r "pool_profiles" (String.concat "," (Array.to_list pool_benchmarks));
  Report.size r "instructions_per_profile" (string_of_int n_instructions);
  Report.size r "clients" (string_of_int nproc);
  Report.size r "workers" (string_of_int workers);
  Report.size r "mix_per_cycle"
    (Printf.sprintf "predict %d, sweep %d x %d points per cycle; a load every %g s per client"
       cycle_predicts cycle_sweeps sweep_points load_interval_s)
