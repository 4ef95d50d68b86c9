(* Tests for the streaming million-point sweep engine: the
   Config_space index -> config bijection, streamed-vs-materialized
   bit-identity (including kill-and-resume and jobs > 1), sub-range
   sharding, and Pareto-guided hierarchical refinement quality. *)

let profile_gcc =
  lazy (Profiler.profile (Benchmarks.find "gcc") ~seed:1 ~n_instructions:30_000)

(* ---- Config_space ---- *)

let test_default_space_equals_design_space () =
  let space = Config_space.default in
  let generated = Config_space.materialize space in
  let legacy = Array.of_list Uarch.design_space in
  Alcotest.(check int) "size" (Array.length legacy) (Array.length generated);
  Array.iteri
    (fun i (u : Uarch.t) ->
      Alcotest.(check string)
        (Printf.sprintf "name of point %d" i)
        u.Uarch.name generated.(i).Uarch.name;
      if generated.(i) <> u then
        Alcotest.failf "point %d differs from Uarch.design_space" i)
    legacy

let test_large_space_size_and_names () =
  let space = Config_space.large in
  Alcotest.(check int) "size" 1_451_520 (Config_space.size space);
  (* First and last points build without error and carry distinct names. *)
  let first = Config_space.config_of_index space 0 in
  let last = Config_space.config_of_index space (Config_space.size space - 1) in
  Alcotest.(check bool) "distinct names" true
    (first.Uarch.name <> last.Uarch.name)

let test_find_space () =
  (match Config_space.find "default" with
  | Ok s -> Alcotest.(check int) "default size" 243 (Config_space.size s)
  | Error _ -> Alcotest.fail "default space not found");
  match Config_space.find "no-such-space" with
  | Ok _ -> Alcotest.fail "bogus space accepted"
  | Error _ -> ()

let random_axes_gen =
  (* 1-3 axes of 1-4 values each: small enough to materialize, shaped
     enough to exercise the mixed-radix arithmetic. *)
  QCheck.Gen.(
    let axis name lo hi =
      map
        (fun vs ->
          {
            Config_space.ax_name = name;
            ax_values = Array.of_list (List.sort_uniq compare vs);
          })
        (list_size (int_range 1 4) (int_range lo hi))
    in
    map3
      (fun a b c -> [| a; b; c |])
      (axis "width" 1 8) (axis "rob" 32 256) (axis "l1_kb" 8 64))

let space_of_axes axes =
  Config_space.make ~name:"test" ~axes ~build:(fun values ->
      let core =
        Uarch.make_core ~dispatch_width:values.(0) ~rob_size:values.(1)
      in
      let caches = Uarch.make_caches ~l1_kb:values.(2) ~l2_kb:256 ~l3_mb:4 in
      {
        Uarch.reference with
        name = Printf.sprintf "t-w%d-rob%d-l1_%dk" values.(0) values.(1) values.(2);
        core;
        caches;
      })

let prop_index_digit_bijection =
  QCheck.Test.make ~name:"index <-> digits round-trips over random grids"
    ~count:100
    (QCheck.make random_axes_gen)
    (fun axes ->
      let space = space_of_axes axes in
      let n = Config_space.size space in
      List.for_all
        (fun i ->
          Config_space.index_of_digits space (Config_space.digits_of_index space i)
          = i)
        (List.init n Fun.id))

(* ---- streamed vs materialized ---- *)

let eval_equal (a : Sweep.eval) (b : Sweep.eval) =
  a.Sweep.sw_index = b.Sweep.sw_index
  && a.sw_cpi = b.sw_cpi && a.sw_cycles = b.sw_cycles
  && a.sw_watts = b.sw_watts && a.sw_seconds = b.sw_seconds
  && a.sw_energy_j = b.sw_energy_j && a.sw_ed2p = b.sw_ed2p
  && a.sw_config.Uarch.name = b.sw_config.Uarch.name

let prop_streamed_equals_materialized =
  QCheck.Test.make
    ~name:
      "streamed sweep point-for-point bit-identical to materialized (any \
       grid, jobs 1 and 4, any block size)" ~count:15
    QCheck.(pair (make random_axes_gen) (int_range 1 7))
    (fun (axes, block_size) ->
      let space = space_of_axes axes in
      let profile = Lazy.force profile_gcc in
      let n = Config_space.size space in
      let configs = Array.to_list (Config_space.materialize space) in
      let outcome =
        match Sweep.model_sweep_result ~profile configs with
        | Ok o -> o
        | Error ft -> Alcotest.failf "materialized: %s" (Fault.to_string ft)
      in
      let materialized =
        List.map
          (function Ok e -> e | Error ft -> Alcotest.failf "point: %s" (Fault.to_string ft))
          outcome.Sweep.o_results
      in
      List.for_all
        (fun jobs ->
          let got : Sweep.eval option array = Array.make n None in
          let s =
            match
              Sweep.model_sweep_stream ~jobs ~block_size
                ~on_point:(fun i r ->
                  match r with
                  | Ok e -> got.(i) <- Some e
                  | Error ft -> Alcotest.failf "streamed point %d: %s" i (Fault.to_string ft))
                ~profile space
            with
            | Ok s -> s
            | Error ft -> Alcotest.failf "streamed: %s" (Fault.to_string ft)
          in
          s.Sweep.ss_ok = n && s.ss_failed = 0
          && List.for_all
               (fun (m : Sweep.eval) ->
                 match got.(m.Sweep.sw_index) with
                 | Some e -> eval_equal e m
                 | None -> false)
               materialized
          && s.ss_front = Pareto.frontier (Sweep.pareto_points materialized))
        [ 1; 4 ])

let prop_kill_and_resume_bit_identical =
  QCheck.Test.make
    ~name:"streamed kill-and-resume bit-identical at a random cursor"
    ~count:10
    QCheck.(triple (make random_axes_gen) (int_range 1 5) (float_range 0.05 0.95))
    (fun (axes, block_size, cut) ->
      let space = space_of_axes axes in
      let profile = Lazy.force profile_gcc in
      let path = Filename.temp_file "stream_resume" ".ckpt" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let run ?jobs () =
            match
              Sweep.model_sweep_stream ?jobs ~checkpoint:path ~block_size
                ~profile space
            with
            | Ok s -> s
            | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft)
          in
          let strip (s : Sweep.stream_summary) =
            { s with ss_resumed_blocks = 0; ss_evaluated_blocks = 0 }
          in
          let s1 = run ~jobs:1 () in
          (* Kill: truncate the log at a random byte cursor (possibly
             mid-record: the CRC framing must drop only the torn tail),
             then resume with a different jobs count. *)
          Kill_log.at_fraction path cut;
          let s2 = run ~jobs:4 () in
          strip s1 = strip s2))

let test_stream_rejects_mismatched_checkpoint () =
  let profile = Lazy.force profile_gcc in
  let path = Filename.temp_file "stream_mismatch" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match
         Sweep.model_sweep_stream ~checkpoint:path ~block_size:64 ~profile
           Config_space.default
       with
      | Ok _ -> ()
      | Error ft -> Alcotest.failf "first run: %s" (Fault.to_string ft));
      (* Same file, different block size: must refuse, not mis-merge. *)
      match
        Sweep.model_sweep_stream ~checkpoint:path ~block_size:32 ~profile
          Config_space.default
      with
      | Ok _ -> Alcotest.fail "mismatched checkpoint accepted"
      | Error _ -> ())

(* ---- sub-range sharding ---- *)

let test_offset_limit_shards_cover_space () =
  let profile = Lazy.force profile_gcc in
  let space = Config_space.default in
  let n = Config_space.size space in
  let full =
    match Sweep.model_sweep_stream ~block_size:50 ~profile space with
    | Ok s -> s
    | Error ft -> Alcotest.failf "full: %s" (Fault.to_string ft)
  in
  (* Three uneven shards; per-point results must match the full sweep and
     the union of shard fronts must reduce to the full front. *)
  let shards = [ (0, 100); (100, 43); (143, n - 143) ] in
  let got : Sweep.eval option array = Array.make n None in
  let shard_fronts =
    List.concat_map
      (fun (offset, length) ->
        let s =
          match
            Sweep.model_sweep_stream ~block_size:16 ~offset ~length
              ~on_point:(fun i r ->
                match r with
                | Ok e -> got.(i) <- Some e
                | Error ft -> Alcotest.failf "shard point %d: %s" i (Fault.to_string ft))
              ~profile space
          with
          | Ok s -> s
          | Error ft -> Alcotest.failf "shard: %s" (Fault.to_string ft)
        in
        Alcotest.(check int) "shard length" length (s.Sweep.ss_ok + s.ss_failed);
        s.Sweep.ss_front)
      shards
  in
  for i = 0 to n - 1 do
    if got.(i) = None then Alcotest.failf "point %d covered by no shard" i
  done;
  Alcotest.(check bool) "shard fronts merge to the full front" true
    (Pareto.frontier shard_fronts = full.Sweep.ss_front)

let test_stream_rejects_bad_range () =
  let profile = Lazy.force profile_gcc in
  match
    Sweep.model_sweep_stream ~offset:200 ~length:100 ~profile
      Config_space.default
  with
  | Ok _ -> Alcotest.fail "range past the end accepted"
  | Error _ -> ()

(* ---- fault isolation in the stream ---- *)

let test_stream_isolates_poisoned_point () =
  let s =
    match
      Sweep.run_stream ~block_size:8 ~workload:"poison" ~n_points:64
        ~eval_point:(fun i ->
          if i = 23 then failwith "poisoned point"
          else
            Sweep.of_prediction (Config_space.config_of_index Config_space.default 0)
              ~index:i
              (Interval_model.predict
                 (Config_space.config_of_index Config_space.default 0)
                 (Lazy.force profile_gcc)))
        ()
    with
    | Ok s -> s
    | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft)
  in
  Alcotest.(check int) "one failed" 1 s.Sweep.ss_failed;
  Alcotest.(check int) "rest ok" 63 s.ss_ok;
  Alcotest.(check bool) "sample fault captured" true
    (s.ss_sample_fault <> None)

let test_stream_stops_without_keep_going () =
  let evaluated = ref 0 in
  let s =
    match
      Sweep.run_stream ~block_size:8 ~keep_going:false ~workload:"poison"
        ~n_points:64
        ~eval_point:(fun i ->
          incr evaluated;
          if i = 10 then failwith "poisoned point"
          else
            Sweep.of_prediction (Config_space.config_of_index Config_space.default 0)
              ~index:i
              (Interval_model.predict
                 (Config_space.config_of_index Config_space.default 0)
                 (Lazy.force profile_gcc)))
        ()
    with
    | Ok s -> s
    | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft)
  in
  Alcotest.(check bool) "blocks skipped" true (s.Sweep.ss_skipped_blocks > 0);
  Alcotest.(check bool) "not every point evaluated" true (!evaluated < 64)

(* ---- staged evaluation ---- *)

let profile_libquantum =
  lazy
    (Profiler.profile (Benchmarks.find "libquantum") ~seed:1
       ~n_instructions:30_000)

let bit_identical a b =
  String.equal (Marshal.to_string a [ Marshal.No_sharing ])
    (Marshal.to_string b [ Marshal.No_sharing ])

(* Axes over which the stages' inputs change in every combination: the
   core stage's (ROB, prefetcher) outside the memory stage's (page size,
   DRAM latency) outside the power model's operating point.  A 16-byte
   page stops the stride prefetcher on libquantum's strides. *)
let staging_space =
  let dvfs = Array.of_list Uarch.dvfs_points in
  Config_space.make ~name:"staging"
    ~axes:
      [|
        { Config_space.ax_name = "rob"; ax_values = [| 64; 128 |] };
        { ax_name = "prefetcher"; ax_values = [| 0; 1; 2 |] };
        { ax_name = "dram_page_bytes"; ax_values = [| 16; 4096 |] };
        { ax_name = "dram_latency"; ax_values = [| 100; 300 |] };
        { ax_name = "dvfs"; ax_values = [| 0; Array.length dvfs - 1 |] };
      |]
    ~build:(fun v ->
      let base = Uarch.with_rob Uarch.reference v.(0) in
      let base =
        match v.(1) with
        | 0 -> Uarch.with_prefetcher base false
        | 1 -> Uarch.with_prefetcher_kind base Uarch.Pf_stride
        | _ -> Uarch.with_prefetcher_kind base Uarch.Pf_next_line
      in
      let freq_ghz, vdd = dvfs.(v.(4)) in
      {
        base with
        name =
          Printf.sprintf "s-rob%d-pf%d-page%d-d%d-f%d" v.(0) v.(1) v.(2) v.(3)
            v.(4);
        memory =
          { base.memory with dram_page_bytes = v.(2); dram_latency = v.(3) };
        operating_point = { freq_ghz; vdd };
      })

type staging_case = {
  sc_space : Config_space.t;
  sc_profile : string;
  sc_offset : int;
  sc_length : int;
  sc_block_size : int;
  sc_jobs : int;
}

let staging_case_gen =
  QCheck.Gen.(
    oneofl [ Config_space.large; Config_space.default; staging_space ]
    >>= fun space ->
    let n = Config_space.size space in
    int_range 1 (min n 300) >>= fun length ->
    int_range 0 (n - length) >>= fun offset ->
    oneofl [ "gcc"; "libquantum" ] >>= fun profile ->
    oneofl [ 1; 7; 4096 ] >>= fun block_size ->
    oneofl [ 1; 2 ] >|= fun jobs ->
    {
      sc_space = space;
      sc_profile = profile;
      sc_offset = offset;
      sc_length = length;
      sc_block_size = block_size;
      sc_jobs = jobs;
    })

let print_staging_case c =
  Printf.sprintf "%s [%d, +%d) on %s, block %d, jobs %d"
    (Config_space.name c.sc_space) c.sc_offset c.sc_length c.sc_profile
    c.sc_block_size c.sc_jobs

let prop_staged_equals_predict =
  QCheck.Test.make
    ~name:
      "staged stream sweep bit-identical to per-point predict (large, \
       default and a prefetcher/page/DRAM grid; block 1, 7, 4096; jobs 1, 2)"
    ~count:100
    (QCheck.make ~print:print_staging_case staging_case_gen)
    (fun c ->
      let profile =
        Lazy.force
          (if c.sc_profile = "gcc" then profile_gcc else profile_libquantum)
      in
      let fresh i =
        let u = Config_space.config_of_index c.sc_space i in
        Sweep.of_prediction u ~index:i (Interval_model.predict u profile)
      in
      let got = Array.make c.sc_length None in
      let staged =
        Sweep.model_sweep_stream ~jobs:c.sc_jobs ~block_size:c.sc_block_size
          ~offset:c.sc_offset ~length:c.sc_length
          ~on_point:(fun i r -> got.(i - c.sc_offset) <- Some r)
          ~profile c.sc_space
      in
      let plain =
        Sweep.run_stream ~jobs:c.sc_jobs ~block_size:c.sc_block_size
          ~workload:profile.Profile.p_workload
          ~n_points:(Config_space.size c.sc_space) ~offset:c.sc_offset
          ~length:c.sc_length ~eval_point:fresh ()
      in
      bit_identical staged plain
      && Array.for_all Fun.id
           (Array.mapi
              (fun k r ->
                match r with
                | Some (Ok e) -> bit_identical e (fresh (c.sc_offset + k))
                | _ -> false)
              got))

let test_staged_adjust_sees_fresh_prediction () =
  (* [?adjust] receives the prediction a fresh [predict] would give,
     [pr_uarch] included, at every point of a run that reuses stages. *)
  let profile = Lazy.force profile_libquantum in
  let bad = Atomic.make 0 in
  let adjust (u : Uarch.t) (pred : Interval_model.prediction) =
    if not (bit_identical pred (Interval_model.predict u profile)) then
      Atomic.incr bad;
    pred.pr_cycles *. 1.5
  in
  (match
     Sweep.model_sweep_stream ~adjust ~block_size:16 ~profile staging_space
   with
  | Ok s -> Alcotest.(check int) "all ok" (Config_space.size staging_space) s.ss_ok
  | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft));
  Alcotest.(check int) "predictions differing from predict" 0 (Atomic.get bad)

let test_fresh_run_stream_evaluates_each_point_once () =
  let profile = Lazy.force profile_gcc in
  let space = Config_space.default in
  let n = Config_space.size space in
  List.iter
    (fun jobs ->
      let calls = Array.init n (fun _ -> Atomic.make 0) in
      let s =
        match
          Sweep.run_stream ~jobs ~block_size:16 ~workload:"count" ~n_points:n
            ~eval_point:(fun i ->
              Atomic.incr calls.(i);
              let u = Config_space.config_of_index space i in
              Sweep.of_prediction u ~index:i (Interval_model.predict u profile))
            ()
        with
        | Ok s -> s
        | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft)
      in
      Alcotest.(check bool) "non-empty front" true (s.Sweep.ss_front_evals <> []);
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: calls for point %d" jobs i)
            1 (Atomic.get c))
        calls)
    [ 1; 2 ]

let test_resumed_front_evals_bit_identical () =
  let profile = Lazy.force profile_libquantum in
  let space = staging_space in
  let path = Filename.temp_file "stream_front" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let run ?checkpoint ~jobs () =
        match
          Sweep.model_sweep_stream ?checkpoint ~jobs ~block_size:5 ~profile space
        with
        | Ok s -> s
        | Error ft -> Alcotest.failf "stream: %s" (Fault.to_string ft)
      in
      let whole = run ~jobs:1 () in
      ignore (run ~checkpoint:path ~jobs:1 ());
      (* Kill: keep the first half of the log, so the resumed run restores
         some blocks and evaluates the rest. *)
      Kill_log.at_fraction path 0.5;
      let resumed = run ~checkpoint:path ~jobs:2 () in
      Alcotest.(check bool) "some blocks resumed" true
        (resumed.Sweep.ss_resumed_blocks > 0);
      Alcotest.(check bool) "some blocks evaluated" true
        (resumed.ss_evaluated_blocks > 0);
      Alcotest.(check int) "front size"
        (List.length whole.Sweep.ss_front)
        (List.length resumed.ss_front_evals);
      Alcotest.(check bool) "front evals bit-identical" true
        (bit_identical whole.ss_front_evals resumed.ss_front_evals))

(* ---- per-point sweeps ---- *)

(* The three per-point consumers of the engine (model, sim, validate),
   each reduced to its Marshal image (with the resume count zeroed) and
   that count. *)
let per_point_sweeps =
  lazy
    (let profile = Lazy.force profile_gcc in
     let spec = Benchmarks.find "gcc" in
     let configs = List.filteri (fun i _ -> i mod 17 = 0) Uarch.design_space in
     let outcome = function
       | Ok (o : Sweep.outcome) ->
         (Marshal.to_string { o with o_resumed = 0 } [], o.o_resumed)
       | Error ft -> Alcotest.failf "sweep: %s" (Fault.to_string ft)
     in
     [
       (fun ~jobs ?checkpoint () ->
         outcome (Sweep.model_sweep_result ~jobs ?checkpoint ~profile configs));
       (fun ~jobs ?checkpoint () ->
         outcome
           (Sweep.sim_sweep_result ~jobs ?checkpoint ~spec ~seed:1
              ~n_instructions:4_000
              (List.filteri (fun i _ -> i < 5) configs)));
       (fun ~jobs ?checkpoint () ->
         match
           Validate.run_workload ~jobs ?checkpoint ~n_instructions:6_000 ~spec
             (Validate.matrix_configs `Quick)
         with
         | Ok wr ->
           (Marshal.to_string { wr with Validate.wr_resumed = 0 } [],
            wr.wr_resumed)
         | Error ft -> Alcotest.failf "validate: %s" (Fault.to_string ft));
     ])

let prop_points_jobs_and_resume_invariant =
  QCheck.Test.make
    ~name:
      "per-point sweeps Marshal-identical for jobs 1/2/4 and after a \
       kill-and-resume at a random record" ~count:9
    QCheck.(
      quad (int_range 0 2) (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 2; 4 ])
        (int_range 0 12))
    (fun (case, jobs_killed, jobs_resumed, kept) ->
      let run = List.nth (Lazy.force per_point_sweeps) case in
      let reference, _ = run ~jobs:1 () in
      let path = Filename.temp_file "points_resume" ".ckpt" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let logged, _ = run ~jobs:jobs_killed ~checkpoint:path () in
          (* Kill after [kept] records plus a torn tail, then resume
             under another jobs count, hence another block size. *)
          let kept = kept mod (Kill_log.n_records path + 1) in
          Kill_log.after_records path kept;
          let resumed, n_resumed = run ~jobs:jobs_resumed ~checkpoint:path () in
          List.for_all (fun jobs -> fst (run ~jobs ()) = reference) [ 2; 4 ]
          && logged = reference && resumed = reference
          && (n_resumed > 0) = (kept > 0)))

(* ---- subset quality and refinement ---- *)

let test_subset_quality_perfect_and_degraded () =
  let pt id d p = { Pareto.pt_id = id; pt_delay = d; pt_power = p } in
  let truth =
    [ pt 0 1.0 5.0; pt 1 2.0 3.0; pt 2 3.0 1.0; pt 3 3.0 5.0; pt 4 2.5 4.0 ]
  in
  let q = Pareto.subset_quality ~truth ~picked_ids:[ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (float 1e-9)) "full pick: sensitivity" 1.0 q.Pareto.sensitivity;
  Alcotest.(check (float 1e-9)) "full pick: specificity" 1.0 q.specificity;
  Alcotest.(check (float 1e-9)) "full pick: hvr" 1.0 q.hvr;
  (* Dropping front point 1 from the picks loses sensitivity and volume
     but picks up no false positives (4 is dominated by 1 yet NOT by the
     remaining picks — it enters the picked front). *)
  let q2 = Pareto.subset_quality ~truth ~picked_ids:[ 0; 2; 3; 4 ] in
  Alcotest.(check bool) "partial pick: sensitivity < 1" true
    (q2.Pareto.sensitivity < 1.0);
  Alcotest.(check bool) "partial pick: hvr < 1" true (q2.hvr < 1.0)

let test_refinement_quality_on_enumerable_space () =
  let profile = Lazy.force profile_gcc in
  let space = Config_space.default in
  let evals =
    Sweep.model_sweep ~profile (Array.to_list (Config_space.materialize space))
  in
  let truth = Sweep.pareto_points evals in
  let rep =
    match Refine.model_refine ~initial_stride:2 ~profile space with
    | Ok r -> r
    | Error ft -> Alcotest.failf "refine: %s" (Fault.to_string ft)
  in
  Alcotest.(check bool) "evaluated a strict subset" true
    (rep.Refine.rf_evaluated < Config_space.size space);
  let q =
    Pareto.subset_quality ~truth
      ~picked_ids:(List.map (fun (p : Pareto.point) -> p.Pareto.pt_id) rep.rf_front)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sensitivity %.3f >= 0.95" q.Pareto.sensitivity)
    true (q.Pareto.sensitivity >= 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "specificity %.3f >= 0.95" q.specificity)
    true (q.specificity >= 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "hvr %.3f >= 0.95" q.hvr)
    true (q.hvr >= 0.95)

let () =
  Alcotest.run "stream"
    [
      ( "config_space",
        [
          Alcotest.test_case "default == Uarch.design_space" `Quick
            test_default_space_equals_design_space;
          Alcotest.test_case "large space" `Quick test_large_space_size_and_names;
          Alcotest.test_case "find" `Quick test_find_space;
          QCheck_alcotest.to_alcotest prop_index_digit_bijection;
        ] );
      ( "streaming",
        [
          QCheck_alcotest.to_alcotest prop_streamed_equals_materialized;
          QCheck_alcotest.to_alcotest prop_kill_and_resume_bit_identical;
          Alcotest.test_case "mismatched checkpoint rejected" `Quick
            test_stream_rejects_mismatched_checkpoint;
          Alcotest.test_case "offset/limit shards cover the space" `Quick
            test_offset_limit_shards_cover_space;
          Alcotest.test_case "bad range rejected" `Quick
            test_stream_rejects_bad_range;
          Alcotest.test_case "poisoned point isolated" `Quick
            test_stream_isolates_poisoned_point;
          Alcotest.test_case "stop without keep-going" `Quick
            test_stream_stops_without_keep_going;
        ] );
      ( "staging",
        [
          QCheck_alcotest.to_alcotest prop_staged_equals_predict;
          Alcotest.test_case "adjust sees the fresh prediction" `Quick
            test_staged_adjust_sees_fresh_prediction;
          Alcotest.test_case "fresh run evaluates each point once" `Quick
            test_fresh_run_stream_evaluates_each_point_once;
          Alcotest.test_case "resumed front evals bit-identical" `Quick
            test_resumed_front_evals_bit_identical;
        ] );
      ( "points",
        [
          QCheck_alcotest.to_alcotest prop_points_jobs_and_resume_invariant;
        ] );
      ( "refine",
        [
          Alcotest.test_case "subset quality" `Quick
            test_subset_quality_perfect_and_degraded;
          Alcotest.test_case "refinement quality >= 0.95 on 243 space" `Quick
            test_refinement_quality_on_enumerable_space;
        ] );
    ]
