(* profile_suite: the user's `mipp profile -o` then `mipp predict -p`
   path.  Each operation profiles about 1M instructions of one benchmark
   at jobs=1 and round-trips the profile through a binary file, so the
   generator, profiler and profile I/O do nearly all the work.  The four
   benchmarks span the traffic the profiler is sensitive to: big code
   with a DRAM phase (gcc), random long reuse distances (mcf), one
   perfect stride (libquantum), unpredictable branches with a small
   footprint (gobmk). *)

let benchmarks = [| "gcc"; "mcf"; "libquantum"; "gobmk" |]
let n_instructions = 1_000_000
let warm_instructions = 100_000
let setup_reps = 3  (* at the start of the run, and as many again at its end *)

let ok what = Report.ok "profile_suite" what

let read_file path = In_channel.with_open_bin path In_channel.input_all

type spans = {
  mutable profile_s : float;
  mutable encode_s : float;
  mutable io_s : float;
  mutable decode_s : float;
  mutable gen_s : float;
  mutable microtraces : int;
  mutable bytes : int;
}

let zero () =
  { profile_s = 0.; encode_s = 0.; io_s = 0.; decode_s = 0.; gen_s = 0.; microtraces = 0; bytes = 0 }

(* [Profile_io.save ~binary:true] then [Profile_io.load], as the CLI does. *)
let untraced_op spec ~seed ~n ~path =
  let p = Profiler.profile spec ~seed ~n_instructions:n in
  Profile_io.save ~binary:true path p;
  ok "load" (Profile_io.load path)

(* The same work as [untraced_op] made of the calls save and load are
   built from, each timed: to_binary_string, a durable write, a read,
   of_string. *)
let traced_op (sp : spans) spec ~seed ~n ~path =
  let p, dt = Timing.span (fun () -> Profiler.profile spec ~seed ~n_instructions:n) in
  sp.profile_s <- sp.profile_s +. dt;
  sp.microtraces <- sp.microtraces + Array.length p.Profile.p_microtraces;
  let bytes, dt = Timing.span (fun () -> Profile_io.to_binary_string p) in
  sp.encode_s <- sp.encode_s +. dt;
  sp.bytes <- sp.bytes + String.length bytes;
  let bytes, dt =
    Timing.span (fun () ->
        let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Retry.write_all fd (Bytes.unsafe_of_string bytes) 0 (String.length bytes);
            Retry.fsync fd);
        read_file path)
  in
  sp.io_s <- sp.io_s +. dt;
  let loaded, dt = Timing.span (fun () -> Profile_io.of_string bytes) in
  sp.decode_s <- sp.decode_s +. dt;
  ok "of_string" loaded

(* The generator alone over the same stream, timed outside the operation
   so that profiler.self_s = profile_s - gen_s. *)
let time_gen (sp : spans) spec ~seed ~n =
  let (), dt =
    Timing.span (fun () ->
        let g = Workload_gen.create spec ~seed in
        Workload_gen.iter_uops g ~n_instructions:n ~f:ignore)
  in
  sp.gen_s <- sp.gen_s +. dt

type phase = {
  rounds : float array array;  (** per pass over the four benchmarks, each one's operation time *)
  spans : spans;
}

(* Whole rounds over the four benchmarks until [seconds] have passed.
   Every reloaded profile must re-encode to exactly the bytes written, and
   every round must write the bytes of the first (the profile is a pure
   function of spec, seed and length).  Each operation starts from a
   collected heap, as each CLI invocation starts in a fresh process, so
   neither its time nor peak RSS depends on garbage left by the last. *)
let run_phase (r : Report.t) ~traced ~specs ~seed ~seconds ~path ~first_bytes =
  let sp = zero () in
  let rounds = ref [] in
  let mismatched = ref 0 and checked = ref 0 in
  let t0 = Timing.now () in
  while Timing.now () -. t0 < seconds do
    let ops = Array.make (Array.length specs) 0.0 in
    Array.iteri
      (fun i spec ->
        Gc.full_major ();
        let loaded, dt =
          Timing.span (fun () ->
              if traced then traced_op sp spec ~seed ~n:n_instructions ~path
              else untraced_op spec ~seed ~n:n_instructions ~path)
        in
        ops.(i) <- dt;
        let written = read_file path in
        incr checked;
        let same_as_first =
          match first_bytes.(i) with
          | None ->
            first_bytes.(i) <- Some written;
            true
          | Some b -> String.equal b written
        in
        if not (same_as_first && String.equal (Profile_io.to_binary_string loaded) written)
        then incr mismatched;
        if traced then time_gen sp spec ~seed ~n:n_instructions)
      specs;
    rounds := ops :: !rounds
  done;
  Report.ops r ~attempted:!checked ~failed:0;
  Report.check r (if traced then "traced_round_trip" else "round_trip") ~checked:!checked
    ~mismatched:!mismatched;
  { rounds = Array.of_list (List.rev !rounds); spans = sp }

let n_rounds ph = Array.length ph.rounds

(* A pass's time is Timing.best_round over its four operations, which
   the host's slow spells of several seconds do not move (see
   Timing.best_round). *)
let round_us ph = 1e6 *. Timing.best_round ph.rounds

let throughput ph =
  float_of_int (Array.length benchmarks * n_instructions) /. Timing.best_round ph.rounds

let run (r : Report.t) ~seed ~seconds ~scratch =
  let path = Filename.concat scratch (Printf.sprintf "profile-%d.bin" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Set-up: resolve the specs and warm every code path on a short
         stream of each benchmark. *)
      let setup () =
        let specs = Array.map Benchmarks.find benchmarks in
        Array.iter (fun spec -> ignore (untraced_op spec ~seed ~n:warm_instructions ~path)) specs;
        specs
      in
      let set_ups () = Array.init setup_reps (fun _ -> Timing.span setup) in
      let first_setups = set_ups () in
      let specs = fst first_setups.(0) in
      let first_bytes = Array.make (Array.length specs) None in
      let ph = run_phase r ~traced:false ~specs ~seed ~seconds ~path ~first_bytes in
      let rate = throughput ph in
      let latency_us = round_us ph in
      Report.e2e r "throughput_per_s" rate;
      Report.e2e r "latency_us" latency_us;
      Report.named r "profile_minstr_per_s" (rate /. 1e6) "Minstr/s";
      Report.timing r "profile_round_s" "s" (Array.map (Array.fold_left ( +. ) 0.0) ph.rounds);
      if r.trace then begin
        let tr = run_phase r ~traced:true ~specs ~seed ~seconds ~path ~first_bytes in
        let per_round x = x /. float_of_int (n_rounds tr) in
        let sp = tr.spans in
        Report.layer r "workload.gen_s" (per_round sp.gen_s);
        Report.layer r "profiler.profile_s" (per_round sp.profile_s);
        Report.layer r "profiler.self_s" (per_round (sp.profile_s -. sp.gen_s));
        Report.layer r "profiler.microtraces"
          (float_of_int sp.microtraces /. float_of_int (n_rounds tr * Array.length specs));
        Report.layer r "profile_io.encode_s" (per_round sp.encode_s);
        Report.layer r "profile_io.decode_s" (per_round sp.decode_s);
        Report.layer r "profile_io.bytes_per_minstr"
          (float_of_int sp.bytes
          /. (float_of_int (n_rounds tr * Array.length specs * n_instructions) /. 1e6));
        Report.layer r "trace.throughput_delta_per_s" (throughput tr -. rate);
        Report.layer r "trace.latency_delta_us" (round_us tr -. latency_us);
        Report.named r "file_io_s_per_round" (per_round sp.io_s) "s"
      end;
      (* The second half of the set-ups, so that setup_s, their median,
         samples the host at both ends of the run. *)
      let reps = Array.append first_setups (set_ups ()) in
      Report.e2e r "setup_s" (Timing.median (Array.map snd reps));
      Report.size r "benchmarks" (String.concat "," (Array.to_list benchmarks));
      Report.size r "instructions_per_op" (string_of_int n_instructions);
      Report.size r "rounds" (string_of_int (n_rounds ph)))
