(* sweep_stream: Sweep.model_sweep_stream at jobs=1 (per-core throughput)
   over Config_space.large.  Two profiles prepared in set-up, 200k
   instructions and 20 micro-traces each, exercise the branch/LLC-chain
   path (gcc) and the DRAM/MLP path (mcf); profiling and StatStack builds
   stay in set-up, so the model layers do nearly all the timed work.

   The swept set is one contiguous 128-point slice in each of the space's
   96 (width, ROB) strata, at seeded offsets: about 12k points per
   profile.  One contiguous slice would cover few ROB sizes of a single
   width, and its cost per point depends on which; spreading the slices
   keeps the seed from moving the figure.  An untimed first round fills
   the model's memo (its cold throughput is reported by name); the timed
   phase then sweeps the set round after round, so every timed round does
   the same work and memory stops growing.  Rounds are short, so that each
   slice is timed twenty times or more in a run (see round_us). *)

let benchmarks = [| "gcc"; "mcf" |]
let n_instructions = 200_000
let slice = 128
let stratum = 15_120  (* points per (width, ROB) pair of Config_space.large *)
let setup_reps = 3  (* at the start of the run, and as many again at its end *)
let space = Config_space.large
let check_length = 4096
let check_sample = 64
let layer_sample_slices = 8

let ok what = Report.ok "sweep_stream" what

type prepared = {
  specs : Workload_spec.t array;
  profiles : Profile.t array;
  profile_s : float;
  prepare_s : float;
}

let setup ~seed () =
  Profile.clear_stack_memo ();
  let specs = Array.map Benchmarks.find benchmarks in
  let timed = Array.map (fun spec -> Timing.span (fun () -> Profiler.profile spec ~seed ~n_instructions)) specs in
  let profiles = Array.map fst timed in
  let prepare_s =
    Array.fold_left
      (fun acc p ->
        ok "validate" (Profile.validate p);
        acc +. snd (Timing.span (fun () -> Profile.prepare p)))
      0.0 profiles
  in
  { specs; profiles; profile_s = Array.fold_left (fun a (_, dt) -> a +. dt) 0.0 timed; prepare_s }

let n_strata = Config_space.size space / stratum

let slice_offsets ~seed =
  let rng = Rng.create seed in
  Array.init n_strata (fun s -> (s * stratum) + Rng.int rng (stratum - slice))

let model_eval profile i =
  let config = Config_space.config_of_index space i in
  Sweep.of_prediction config ~index:i (Interval_model.predict config profile)

(* The traced sweep: run_stream with an eval_point made of the same
   public calls model_sweep_stream makes, each one timed. *)
type spans = {
  mutable config_s : float;
  mutable predict_s : float;
  mutable of_prediction_s : float;
  mutable eval_s : float;
  mutable points : int;
}

let traced_sweep sp profile ~offset =
  ok "validate" (Profile.validate profile);
  Profile.prepare profile;
  Sweep.run_stream ~jobs:1 ~workload:profile.Profile.p_workload ~n_points:(Config_space.size space)
    ~offset ~length:slice
    ~eval_point:(fun i ->
      let t0 = Timing.now () in
      let config = Config_space.config_of_index space i in
      let t1 = Timing.now () in
      let pred = Interval_model.predict config profile in
      let t2 = Timing.now () in
      let ev = Sweep.of_prediction config ~index:i pred in
      let t3 = Timing.now () in
      sp.config_s <- sp.config_s +. (t1 -. t0);
      sp.predict_s <- sp.predict_s +. (t2 -. t1);
      sp.of_prediction_s <- sp.of_prediction_s +. (t3 -. t2);
      sp.eval_s <- sp.eval_s +. (t3 -. t0);
      sp.points <- sp.points + 1;
      ev)
    ()

type phase = {
  rounds : float array array;
      (** per round over every slice of both profiles, its (slice, profile)
          calls' times in call order *)
  points : int;
}

let op_seconds ph = Array.concat (Array.to_list ph.rounds)
let round_seconds ph = Array.map (Array.fold_left ( +. ) 0.0) ph.rounds

(* Whole rounds until [seconds] have passed or [max_rounds] are done.
   Every summary must equal, bit for bit, the first one [summaries] holds
   for its (profile, offset): the sweep is a pure function of both. *)
let run_phase (r : Report.t) ~(prep : prepared) ~offsets ~summaries ~check ?(max_rounds = max_int)
    ~seconds ~sweep () =
  let rounds = ref [] and points = ref 0 and failed = ref 0 in
  let checked = ref 0 and mismatched = ref 0 in
  let t0 = Timing.now () in
  while Timing.now () -. t0 < seconds && List.length !rounds < max_rounds do
    let round = ref [] in
    Array.iter
      (fun offset ->
        Array.iteri
          (fun pi profile ->
            let res, dt = Timing.span (fun () -> sweep profile ~offset) in
            round := dt :: !round;
            points := !points + slice;
            match res with
            | Ok (s : Sweep.stream_summary) -> (
              failed := !failed + s.ss_failed;
              match Hashtbl.find_opt summaries (pi, offset) with
              | None -> Hashtbl.replace summaries (pi, offset) s
              | Some first ->
                incr checked;
                if not (Report.same first s) then incr mismatched)
            | Error _ -> failed := !failed + slice)
          prep.profiles)
      offsets;
    rounds := Array.of_list (List.rev !round) :: !rounds
  done;
  Report.ops r ~attempted:!points ~failed:!failed;
  if !checked > 0 then Report.check r check ~checked:!checked ~mismatched:!mismatched;
  { rounds = Array.of_list (List.rev !rounds); points = !points }

(* A round's time is Timing.best_round over its slice calls.  On a
   shared 2-vCPU KVM host whose speed switched between a fast and a 1.6x
   slower state for seconds at a time, the median round of five 25 s runs
   spread by 28% (interquartile range over median) and the best round by
   1%.  Drifts of the host's fastest state over minutes move both alike. *)
let round_us ph = 1e6 *. Timing.best_round ph.rounds

let throughput ph =
  float_of_int (ph.points / Array.length ph.rounds) /. Timing.best_round ph.rounds

let untraced_sweep profile ~offset =
  Sweep.model_sweep_stream ~jobs:1 ~offset ~length:slice ~profile space

(* Output checks on a one-block slice at a seeded offset: a seeded sample
   of points equals a direct Interval_model.predict, and a run_stream over
   the bench's own eval_point summarises bit-identically. *)
let check_outputs (r : Report.t) ~(prep : prepared) ~seed ~offset0 =
  let rng = Rng.create (seed + 1) in
  let sample = Hashtbl.create check_sample in
  for _ = 1 to check_sample do
    Hashtbl.replace sample (offset0 + Rng.int rng check_length) ()
  done;
  let points = ref 0 and point_bad = ref 0 and summaries = ref 0 and summary_bad = ref 0 in
  Array.iter
    (fun profile ->
      let seen = Hashtbl.create check_sample in
      let s =
        ok "check sweep"
          (Sweep.model_sweep_stream ~jobs:1 ~offset:offset0 ~length:check_length
             ~on_point:(fun i res -> if Hashtbl.mem sample i then Hashtbl.replace seen i res)
             ~profile space)
      in
      Hashtbl.iter
        (fun i () ->
          incr points;
          match Hashtbl.find_opt seen i with
          | Some (Ok ev) when Report.same ev (model_eval profile i) -> ()
          | _ -> incr point_bad)
        sample;
      let own =
        ok "check run_stream"
          (Sweep.run_stream ~jobs:1 ~workload:profile.Profile.p_workload
             ~n_points:(Config_space.size space) ~offset:offset0 ~length:check_length
             ~eval_point:(model_eval profile) ())
      in
      incr summaries;
      if not (Report.same s own) then incr summary_bad)
    prep.profiles;
  Report.check r "sampled_points_match_predict" ~checked:!points ~mismatched:!point_bad;
  Report.check r "run_stream_summary_bit_identical" ~checked:!summaries ~mismatched:!summary_bad

(* predict with every miss ratio, the branch rate and MLP fixed through
   overrides, which leaves dispatch and interval assembly.  The inputs are
   the ones the full model derives for the profile at the reference
   design, held fixed across the sample as measured inputs would be. *)
let fixed_inputs_options profile =
  let pred = Interval_model.predict Uarch.reference profile in
  let a = pred.pr_activity in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let l1 = ratio a.a_l2_accesses a.a_l1d_accesses
  and l2 = ratio a.a_l3_accesses a.a_l1d_accesses
  and l3 = ratio a.a_dram_accesses a.a_l1d_accesses in
  {
    Interval_model.default_options with
    overrides =
      {
        ov_branch_missrate = Some (ratio pred.pr_branch_mispredicts a.a_branch_lookups);
        ov_load_miss_ratios = Some (l1, l2, l3);
        ov_store_miss_ratios = Some (l1, l2, l3);
        ov_inst_miss_ratios = Some (Float.min 1.0 (ratio a.a_l2_accesses a.a_l1i_accesses), 0.0, 0.0);
        ov_mlp = Some pred.pr_mlp;
      };
  }

(* Per-point cost of Power.estimate on the activity predict produced, and
   of predict with fixed inputs, over whole slices in index order.  Each
   slice is walked once with the fixed inputs before it is timed, so the
   model's memo holds their entries as it holds the sweep's own. *)
let layer_sample_costs ~(prep : prepared) ~offsets =
  let power_s = ref 0.0 and fixed_s = ref 0.0 and n = ref 0 in
  Array.iter
    (fun profile ->
      let options = fixed_inputs_options profile in
      for k = 0 to layer_sample_slices - 1 do
        let offset = offsets.(k * n_strata / layer_sample_slices) in
        let configs = Array.init slice (fun j -> Config_space.config_of_index space (offset + j)) in
        Array.iter (fun config -> ignore (Interval_model.predict ~options config profile)) configs;
        Array.iter
          (fun config ->
            let pred = Interval_model.predict config profile in
            let _, dt = Timing.span (fun () -> Power.estimate config pred.pr_activity) in
            power_s := !power_s +. dt;
            let _, dt = Timing.span (fun () -> Interval_model.predict ~options config profile) in
            fixed_s := !fixed_s +. dt;
            incr n)
          configs
      done)
    prep.profiles;
  let per_point x = 1e6 *. x /. float_of_int !n in
  (per_point !power_s, per_point !fixed_s)

(* [setup_reps] set-ups; only the latest one's profiles stay alive. *)
let set_ups ~seed ~latest =
  Array.init setup_reps (fun _ ->
      latest := None;
      let p, dt = Timing.span (setup ~seed) in
      latest := Some p;
      (dt, p.profile_s, p.prepare_s))

let run (r : Report.t) ~seed ~seconds =
  let latest = ref None in
  let first_setups = set_ups ~seed ~latest in
  let prep = Option.get !latest in
  let offsets = slice_offsets ~seed in
  let summaries = Hashtbl.create (2 * n_strata) in
  let cold =
    run_phase r ~prep ~offsets ~summaries ~check:"" ~max_rounds:1 ~seconds:infinity
      ~sweep:untraced_sweep ()
  in
  let c0 = Statstack.construction_count () in
  let ph =
    run_phase r ~prep ~offsets ~summaries ~check:"repeated_summary_bit_identical" ~seconds
      ~sweep:untraced_sweep ()
  in
  let constructions = Statstack.construction_count () - c0 in
  let rate = throughput ph in
  let latency_us = round_us ph in
  Report.e2e r "throughput_per_s" rate;
  Report.e2e r "latency_us" latency_us;
  Report.named r "sweep_points_per_s" rate "points/s";
  Report.named r "sweep_cold_points_per_s" (throughput cold) "points/s";
  Report.named r "timed_statstack_constructions" (float_of_int constructions) "count";
  Report.timing r "round_s" "s" (round_seconds ph);
  Report.timing r "slice_s" "s" (op_seconds ph);
  check_outputs r ~prep ~seed ~offset0:(Rng.int (Rng.create (seed + 2)) (Config_space.size space - check_length));
  if r.trace then begin
    let sp = { config_s = 0.; predict_s = 0.; of_prediction_s = 0.; eval_s = 0.; points = 0 } in
    (* The traced run_stream summaries must equal model_sweep_stream's. *)
    let tr =
      run_phase r ~prep ~offsets ~summaries ~check:"traced_summary_bit_identical" ~seconds
        ~sweep:(fun profile ~offset -> traced_sweep sp profile ~offset)
        ()
    in
    let per_point x = 1e6 *. x /. float_of_int sp.points in
    let n_slices = float_of_int (Array.length (op_seconds tr)) in
    Report.layer r "dse.config_of_index_us" (per_point sp.config_s);
    Report.layer r "core.predict_us" (per_point sp.predict_s);
    Report.layer r "dse.of_prediction_us" (per_point sp.of_prediction_s);
    Report.layer r "dse.engine_self_s"
      ((Array.fold_left ( +. ) 0.0 (op_seconds tr) -. sp.eval_s) /. n_slices);
    let microtraces =
      Array.fold_left (fun a p -> a + Array.length p.Profile.p_microtraces) 0 prep.profiles
      / Array.length prep.profiles
    in
    Report.layer r "core.us_per_point_per_microtrace"
      (per_point sp.predict_s /. float_of_int microtraces);
    let power_us, fixed_us = layer_sample_costs ~prep ~offsets in
    Report.layer r "power.estimate_us" power_us;
    Report.layer r "core.predict_fixed_inputs_us" fixed_us;
    Report.layer r "statstack.constructions" (float_of_int constructions);
    Report.layer r "profiler.microtraces" (float_of_int microtraces);
    Report.layer r "trace.throughput_delta_per_s" (throughput tr -. rate);
    Report.layer r "trace.latency_delta_us" (round_us tr -. latency_us)
  end;
  (* The second half of the set-ups, so that setup_s, their median, samples
     the host at both ends of the run. *)
  let reps = Array.append first_setups (set_ups ~seed ~latest) in
  Report.e2e r "setup_s" (Timing.median (Array.map (fun (dt, _, _) -> dt) reps));
  if r.trace then begin
    (* Set-up layers, per pass over both profiles. *)
    let median_of f = Timing.median (Array.map f reps) in
    let gen_s =
      Timing.median
        (Array.init (Array.length reps) (fun _ ->
             Array.fold_left
               (fun acc spec ->
                 acc
                 +. snd
                      (Timing.span (fun () ->
                           Workload_gen.iter_uops (Workload_gen.create spec ~seed) ~n_instructions
                             ~f:ignore)))
               0.0 prep.specs))
    in
    let profile_s = median_of (fun (_, profile_s, _) -> profile_s) in
    Report.layer r "workload.gen_s" gen_s;
    Report.layer r "profiler.profile_s" profile_s;
    Report.layer r "profiler.self_s" (profile_s -. gen_s);
    Report.layer r "profile.prepare_s" (median_of (fun (_, _, prepare_s) -> prepare_s))
  end;
  Report.size r "benchmarks" (String.concat "," (Array.to_list benchmarks));
  Report.size r "instructions_per_profile" (string_of_int n_instructions);
  Report.size r "slice_points" (string_of_int slice);
  Report.size r "slices_per_round" (string_of_int n_strata);
  Report.size r "rounds_timed" (string_of_int (Array.length ph.rounds))
