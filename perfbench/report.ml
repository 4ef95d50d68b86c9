(* One workload run's results and their JSON form.  The JSON is the last
   line bench.exe prints; run.py turns it into the benchmark's result line. *)

(* The gated end-to-end metrics.  Every workload reports every one, so
   throughput and latency are defined per workload (see run.py). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_us", "us");
    ("peak_rss_mb", "MB");
    ("cpi_mape", "%");
    ("power_mape", "%");
  ]

(* Per-layer metrics of the traced run.  A workload that never calls a
   layer reports 0 for it. *)
let per_layer =
  [
    ("workload.gen_s", "s");
    ("profiler.profile_s", "s");
    ("profiler.self_s", "s");
    ("profiler.microtraces", "count");
    ("profile_io.encode_s", "s");
    ("profile_io.decode_s", "s");
    ("profile_io.bytes_per_minstr", "B/Minstr");
    ("profile.prepare_s", "s");
    ("statstack.constructions", "count");
    ("dse.config_of_index_us", "us");
    ("core.predict_us", "us");
    ("dse.of_prediction_us", "us");
    ("power.estimate_us", "us");
    ("core.predict_fixed_inputs_us", "us");
    ("core.us_per_point_per_microtrace", "us");
    ("dse.engine_self_s", "s");
    ("client.predict_us", "us");
    ("client.sweep_us", "us");
    ("client.load_us", "us");
    ("serve.wire_queue_us", "us");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("serve.shed", "count");
    ("serve.queue_depth_max", "count");
    ("serve.crashes", "count");
    ("serve.cache_hit_rate", "ratio");
    ("serve.cache_evictions", "count");
    ("trace.throughput_delta_per_s", "1/s");
    ("trace.latency_delta_us", "us");
  ]

type t = {
  workload : string;
  trace : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * int * int) list;  (** name, checked, mismatched *)
  e2e : (string, float) Hashtbl.t;
  layers : (string, float) Hashtbl.t;
  mutable named : (string * float * string) list;
  mutable sizes : (string * string) list;
  mutable timings : (string * string * Timing.summary) list;
}

let create ~workload ~trace =
  {
    workload;
    trace;
    attempted = 0;
    failed = 0;
    checks = [];
    e2e = Hashtbl.create 8;
    layers = Hashtbl.create 32;
    named = [];
    sizes = [];
    timings = [];
  }

(* Unwrap a library result; a fault here is a broken set-up, not a
   measured failure, so it aborts the run. *)
let ok workload what = function
  | Ok v -> v
  | Error f -> failwith (Printf.sprintf "%s: %s: %s" workload what (Fault.to_string f))

let ops t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

(* An output check over [checked] items of which [mismatched] were wrong;
   both count into attempted/failed, so failed_ratio covers them. *)
let check t name ~checked ~mismatched =
  ops t ~attempted:checked ~failed:mismatched;
  t.checks <- (name, checked, mismatched) :: t.checks

let set table names name v =
  if not (List.mem_assoc name names) then
    invalid_arg ("Report: unknown metric " ^ name);
  Hashtbl.replace table name v

let e2e t = set t.e2e end_to_end
let layer t = set t.layers per_layer
let named t name v unit_ = t.named <- t.named @ [ (name, v, unit_) ]
let size t k v = t.sizes <- t.sizes @ [ (k, v) ]

let timing t name unit_ samples =
  if samples <> [||] then
    t.timings <- t.timings @ [ (name, unit_, Timing.summarize samples) ]

(* Bit-level equality of plain data: floats compare by their bits, so a
   NaN equals itself and 0.0 differs from -0.0. *)
let same a b = String.equal (Marshal.to_string a [ No_sharing ]) (Marshal.to_string b [ No_sharing ])

(* VmHWM: the process's peak resident set, which is why each workload
   runs in its own process. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      go ())

(* ---- JSON ---- *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat ", " items ^ "]"
let metric v unit_ = obj [ ("value", num v); ("unit", str unit_) ]

let metrics_of ?default table names =
  obj
    (List.map
       (fun (name, unit_) ->
         let v =
           match (Hashtbl.find_opt table name, default) with
           | Some v, _ | None, Some v -> v
           | None, None -> failwith ("Report: metric not measured: " ^ name)
         in
         (name, metric v unit_))
       names)

let summary_json (name, unit_, (s : Timing.summary)) =
  obj
    ([ ("name", str name); ("unit", str unit_); ("n", string_of_int s.n);
       ("median", num s.median) ]
    @
    match (s.tail_pct, s.tail) with
    | Some p, Some v -> [ ("tail_pct", num p); ("tail", num v) ]
    | _ -> [])

let to_json t ~seed ~seconds =
  obj
    [
      ("workload", str t.workload);
      ("seed", string_of_int seed);
      ("seconds", num seconds);
      ("trace", string_of_bool t.trace);
      ("ocaml_version", str Sys.ocaml_version);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("attempted", string_of_int t.attempted);
      ("failed", string_of_int t.failed);
      ( "checks",
        arr
          (List.rev_map
             (fun (n, c, m) ->
               obj [ ("name", str n); ("checked", string_of_int c); ("mismatched", string_of_int m) ])
             t.checks) );
      ("end_to_end", metrics_of t.e2e end_to_end);
      ("per_layer", if t.trace then metrics_of ~default:0.0 t.layers per_layer else "null");
      ("named", obj (List.map (fun (n, v, u) -> (n, metric v u)) t.named));
      ("sizes", obj (List.map (fun (k, v) -> (k, str v)) t.sizes));
      ("timings", arr (List.map summary_json t.timings));
    ]
