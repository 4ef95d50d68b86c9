(* Metamorphic suite for the model-vs-simulator validation harness.

   Two kinds of invariant:
   - directional laws both engines must share (larger structures never
     make the matching CPI-stack component worse, idealized miss
     sources zero the matching component, single-parameter
     perturbations move model and simulator the same way), and
   - algebraic laws of the harness itself (keyed stacks sum to CPI,
     component errors decompose the total error, checkpoint payloads
     round-trip bit-exactly, identical stacks diff to zero).

   Properties that simulate keep counts and instruction budgets small:
   they exist to catch sign and attribution mistakes, not to re-measure
   accuracy (the bench gate does that). *)

let n_quick = 20_000
let test_benches = [| "gcc"; "mcf"; "sphinx3" |]

(* Profiles are the expensive shared fixture; memoize per (bench, seed). *)
let profile_cache : (string * int, Profile.t) Hashtbl.t = Hashtbl.create 8

let profile bench seed =
  match Hashtbl.find_opt profile_cache (bench, seed) with
  | Some p -> p
  | None ->
    let p =
      Profiler.profile (Benchmarks.find bench) ~seed ~n_instructions:n_quick
    in
    Hashtbl.replace profile_cache (bench, seed) p;
    p

let bench_gen = QCheck.(map (fun i -> test_benches.(i)) (int_range 0 2))

let with_l3_bytes (u : Uarch.t) size_bytes =
  { u with caches = { u.caches with l3 = { u.caches.l3 with size_bytes } } }

(* ---- 1: model base component never grows with a larger ROB ---- *)

(* Dependence chains are profiled on a 16-entry ROB grid and
   interpolated, which leaves ±3% local wiggles in the base component;
   the monotonicity law is therefore asserted at doubling scale, where
   the real effect dwarfs the sampling noise. *)
let prop_model_rob_base =
  QCheck.Test.make
    ~name:"model: doubling the ROB never increases base CPI" ~count:12
    QCheck.(triple bench_gen (int_range 2 8) (int_range 1 3))
    (fun (bench, rob16, seed) ->
      let p = profile bench seed in
      let rob = 16 * rob16 in
      let small = Uarch.with_rob Uarch.reference rob in
      let large = Uarch.with_rob Uarch.reference (2 * rob) in
      let base u =
        Cpi_stack.get
          (Interval_model.cpi_stack (Interval_model.predict u p))
          Cpi_stack.Base
      in
      base large <= (base small *. 1.02) +. 1e-9)

(* ---- 2: larger caches never create misses (model) ---- *)

let prop_model_l3_misses =
  QCheck.Test.make
    ~name:"model: larger L3 never increases L3 misses or DRAM loads" ~count:12
    QCheck.(triple bench_gen (int_range 1 4) (int_range 1 4))
    (fun (bench, mb, extra_mb) ->
      let p = profile bench 1 in
      let small = with_l3_bytes Uarch.reference (mb * 1024 * 1024) in
      let large =
        with_l3_bytes Uarch.reference ((mb + extra_mb) * 1024 * 1024)
      in
      let misses u =
        let pr = Interval_model.predict u p in
        let _, _, m3 = pr.Interval_model.pr_load_misses in
        (m3, pr.pr_dram_loads)
      in
      let m3_s, dram_s = misses small in
      let m3_l, dram_l = misses large in
      m3_l <= m3_s +. 1e-9 && dram_l <= dram_s +. 1e-9)

(* ---- 3: zero-mispredict override zeroes the model branch stack ---- *)

let prop_model_zero_branch =
  QCheck.Test.make
    ~name:"model: zero-mispredict override yields zero branch component"
    ~count:12
    QCheck.(pair bench_gen (int_range 1 3))
    (fun (bench, seed) ->
      let p = profile bench seed in
      let options =
        { Interval_model.default_options with
          overrides =
            { Interval_model.no_overrides with ov_branch_missrate = Some 0.0 }
        }
      in
      let pred = Interval_model.predict ~options Uarch.reference p in
      Cpi_stack.get (Interval_model.cpi_stack pred) Cpi_stack.Branch = 0.0
      && pred.pr_branch_mispredicts = 0.0)

(* ---- 4: ideal branch prediction zeroes the simulator branch stack ---- *)

let prop_sim_zero_branch =
  QCheck.Test.make
    ~name:"sim: ideal branch prediction yields zero branch component" ~count:5
    QCheck.(pair bench_gen (int_range 1 100))
    (fun (bench, seed) ->
      let spec = Benchmarks.find bench in
      let ideal = { Simulator.real with no_branch_miss = true } in
      let r =
        Simulator.run ~ideal Uarch.reference spec ~seed
          ~n_instructions:n_quick
      in
      Cpi_stack.get (Sim_result.cpi_stack r) Cpi_stack.Branch = 0.0
      && r.r_branch_mispredicts = 0)

(* ---- 5 & 6: single-parameter perturbations move both engines the
   same way.  A larger ROB and a wider dispatch may never slow either
   engine down (beyond noise); that shared direction is what the
   validation harness banks on when it attributes error. ---- *)

let both_non_increasing bench seed ~small ~large =
  let spec = Benchmarks.find bench in
  let p = profile bench 1 in
  let model u = Interval_model.cpi (Interval_model.predict u p) in
  let sim u =
    Sim_result.cpi (Simulator.run u spec ~seed ~n_instructions:n_quick)
  in
  model large <= model small +. 1e-9
  (* the simulator is noisy at small budgets; 2% slack *)
  && sim large <= sim small *. 1.02

let prop_direction_rob =
  QCheck.Test.make
    ~name:"model and sim agree: ROB 64 -> 256 never increases CPI" ~count:4
    QCheck.(pair bench_gen (int_range 1 100))
    (fun (bench, seed) ->
      both_non_increasing bench seed
        ~small:(Uarch.with_rob Uarch.reference 64)
        ~large:(Uarch.with_rob Uarch.reference 256))

(* Dispatch width is not monotone for either engine (a wider window
   speculates harder), so the shared invariant is weaker than for the
   ROB: both engines must *agree on the direction* of the change, except
   when one of them sees a negligible (< 3%) effect — at these budgets
   the sign of a sub-3% delta is noise, not direction. *)
let prop_direction_width =
  QCheck.Test.make
    ~name:"model and sim agree on the direction of a width change" ~count:4
    QCheck.(pair bench_gen (int_range 1 100))
    (fun (bench, seed) ->
      let with_width w =
        { Uarch.reference with
          core = { Uarch.reference.core with dispatch_width = w } }
      in
      let spec = Benchmarks.find bench in
      let p = profile bench 1 in
      let model u = Interval_model.cpi (Interval_model.predict u p) in
      let sim u =
        Sim_result.cpi (Simulator.run u spec ~seed ~n_instructions:n_quick)
      in
      let dm = (model (with_width 6) /. model (with_width 2)) -. 1.0 in
      let ds = (sim (with_width 6) /. sim (with_width 2)) -. 1.0 in
      dm *. ds >= 0.0 || Float.min (Float.abs dm) (Float.abs ds) < 0.03)

(* ---- 7: keyed stacks sum to the CPI they decompose ---- *)

let prop_stack_totals =
  QCheck.Test.make ~name:"keyed stacks total to CPI (model exact, sim ~1%)"
    ~count:5
    QCheck.(pair bench_gen (int_range 1 100))
    (fun (bench, seed) ->
      let spec = Benchmarks.find bench in
      let pred = Interval_model.predict Uarch.reference (profile bench 1) in
      let r = Simulator.run Uarch.reference spec ~seed ~n_instructions:n_quick in
      let model_total = Cpi_stack.total (Interval_model.cpi_stack pred) in
      let model_cpi = Interval_model.cpi pred in
      let sim_total = Cpi_stack.total (Sim_result.cpi_stack r) in
      let sim_cpi = Sim_result.cpi r in
      Float.abs (model_total -. model_cpi) <= 1e-6 *. Float.max 1.0 model_cpi
      && Float.abs (sim_total -. sim_cpi) <= 0.01 *. sim_cpi)

(* ---- 8: identical stacks diff to zero ---- *)

let stack_gen =
  QCheck.(
    map
      (fun (base, branch, (icache, llc_hit, dram)) ->
        Cpi_stack.of_values ~base ~branch ~icache ~llc_hit ~dram)
      (triple (float_range 0.01 5.0) (float_range 0.0 5.0)
         (triple (float_range 0.0 5.0) (float_range 0.0 5.0)
            (float_range 0.0 5.0))))

let synthetic_point ~model ~sim =
  {
    Validate.vp_index = 0;
    vp_uarch = Uarch.reference;
    vp_model_stack = model;
    vp_model_cpi = Cpi_stack.total model;
    vp_sim_stack = sim;
    vp_sim_cpi = Cpi_stack.total sim;
  }

let prop_identical_stacks_zero_error =
  QCheck.Test.make ~name:"identical stacks produce zero error everywhere"
    ~count:100 stack_gen
    (fun stack ->
      let pt = synthetic_point ~model:stack ~sim:stack in
      Validate.signed_error pt = 0.0
      && Validate.abs_error pt = 0.0
      && List.for_all
           (fun c -> Validate.component_signed_error pt c = 0.0)
           Cpi_stack.all)

(* ---- 9: component errors decompose the total signed error ---- *)

let prop_component_decomposition =
  QCheck.Test.make
    ~name:"component signed errors sum to the total signed error" ~count:100
    QCheck.(pair stack_gen stack_gen)
    (fun (model, sim) ->
      let pt = synthetic_point ~model ~sim in
      let sum =
        List.fold_left
          (fun a c -> a +. Validate.component_signed_error pt c)
          0.0 Cpi_stack.all
      in
      Float.abs (sum -. Validate.signed_error pt) < 1e-9)

(* ---- 10: checkpoint float vectors round-trip bit-exactly ---- *)

let prop_vec_checkpoint_roundtrip =
  QCheck.Test.make ~name:"vec checkpoint round-trips payloads bit-exactly"
    ~count:25
    QCheck.(
      pair (int_range 1 8)
        (small_list (small_list (float_range (-1e6) 1e6))))
    (fun (width, rows) ->
      (* Rows are padded/truncated to the declared width; a NaN and an
         infinity are injected to exercise the raw-bits encoding. *)
      let rows =
        List.mapi
          (fun i row ->
            Array.init width (fun j ->
                match (i, j) with
                | 0, 0 -> Float.nan
                | 1, 0 -> Float.infinity
                | _ -> (
                  match List.nth_opt row j with Some v -> v | None -> 0.0)))
          (if rows = [] then [ [] ] else rows)
      in
      let n = List.length rows in
      let path = Filename.temp_file "mipp_validate" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Sys.remove path;
          let header = Printf.sprintf "points n=%d width=%d" n width in
          let t, _ = Result.get_ok (Checkpoint.open_ path ~header) in
          Checkpoint.append t
            [ { Checkpoint.r_start = 0; r_count = n;
                r_items = List.map (fun row -> Ok row) rows } ];
          Checkpoint.close t;
          match Checkpoint.open_ path ~header with
          | Error _ -> false
          | Ok (t, records) -> (
            Checkpoint.close t;
            let bits = Array.map Int64.bits_of_float in
            match records with
            | [ { r_start = 0; r_count; r_items } ] ->
              r_count = n
              && List.length r_items = n
              && List.for_all2
                   (fun item row ->
                     match item with
                     | Ok v -> bits v = bits row
                     | Error _ -> false)
                   r_items rows
            | _ -> false)))

(* ---- Harness unit tests ---- *)

let test_matrix_sizes () =
  Alcotest.(check int) "quick" 9 (List.length (Validate.matrix_configs `Quick));
  Alcotest.(check int) "sim" 27 (List.length (Validate.matrix_configs `Sim));
  Alcotest.(check int) "full" 243 (List.length (Validate.matrix_configs `Full));
  List.iter
    (fun m ->
      Alcotest.(check string)
        "matrix name round-trips"
        (Validate.matrix_to_string m)
        (Validate.matrix_to_string
           (Result.get_ok
              (Validate.matrix_of_string (Validate.matrix_to_string m)))))
    [ `Quick; `Sim; `Full ];
  Alcotest.(check bool)
    "unknown matrix rejected" true
    (Result.is_error (Validate.matrix_of_string "enormous"))

let run_quick ?checkpoint () =
  Result.get_ok
    (Validate.run_workload ?checkpoint ~jobs:2 ~n_instructions:8_000
       ~spec:(Benchmarks.find "gcc")
       (Validate.matrix_configs `Quick))

let point_fingerprint (p : Validate.point) =
  ( p.vp_index,
    List.map Int64.bits_of_float
      (p.vp_model_cpi :: p.vp_sim_cpi
       :: List.map snd
            (Cpi_stack.to_alist p.vp_model_stack
            @ Cpi_stack.to_alist p.vp_sim_stack)) )

let test_checkpoint_resume_identical () =
  let path = Filename.temp_file "mipp_validate" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sys.remove path;
      let direct = run_quick () in
      let checkpointed = run_quick ~checkpoint:path () in
      let resumed = run_quick ~checkpoint:path () in
      Alcotest.(check int)
        "all restored from log" 9 resumed.Validate.wr_resumed;
      List.iter
        (fun (wr : Validate.workload_report) ->
          Alcotest.(check (list (pair int (list int64))))
            "points bit-identical"
            (List.map point_fingerprint direct.Validate.wr_points)
            (List.map point_fingerprint wr.Validate.wr_points))
        [ checkpointed; resumed ])

let test_gate_and_summary () =
  let near = Cpi_stack.of_values ~base:1.0 ~branch:0.5 ~icache:0.2
      ~llc_hit:0.1 ~dram:1.0 in
  let far = Cpi_stack.of_values ~base:2.0 ~branch:1.0 ~icache:0.4 ~llc_hit:0.2
      ~dram:2.0 in
  let wr points =
    Validate.
      {
        wr_workload = "synthetic";
        wr_stats = [];
        wr_n_points = List.length points;
        wr_points = points;
        wr_faults = [];
        wr_resumed = 0;
        wr_mean_signed = 0.0;
        wr_mape = 0.0;
        wr_max_abs = 0.0;
        wr_components = [];
        wr_worst = None;
        wr_rob_trend = [];
        wr_l3_trend = [];
      }
  in
  let exact = Validate.summarize [ wr [ synthetic_point ~model:near ~sim:near ] ] in
  Alcotest.(check (float 1e-12)) "identical stacks: zero MAPE" 0.0
    exact.Validate.rp_mape;
  Alcotest.(check bool) "zero error passes any gate" true
    (Validate.passes_gate exact ~gate:0.0);
  let off = Validate.summarize [ wr [ synthetic_point ~model:far ~sim:near ] ] in
  (* far = 2 x near: +100% signed error *)
  Alcotest.(check (float 1e-9)) "doubled stack: +100% error" 1.0
    off.Validate.rp_mape;
  Alcotest.(check bool) "100% error fails the default gate" false
    (Validate.passes_gate off ~gate:Validate.default_gate);
  let empty = Validate.summarize [ wr [] ] in
  Alcotest.(check bool) "no successful points never passes" false
    (Validate.passes_gate empty ~gate:1.0)

let test_json_report () =
  let report = Validate.summarize [] in
  let path = Filename.temp_file "mipp_validate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Result.get_ok (Validate.save_json path report);
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "object braces" true
        (String.length s > 2 && s.[0] = '{' && String.ends_with ~suffix:"}\n" s);
      let contains ~needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "schema tagged" true
        (contains ~needle:"mipp-accuracy-v1" s))

let () =
  Alcotest.run "validate"
    [
      ( "metamorphic",
        [
          QCheck_alcotest.to_alcotest prop_model_rob_base;
          QCheck_alcotest.to_alcotest prop_model_l3_misses;
          QCheck_alcotest.to_alcotest prop_model_zero_branch;
          QCheck_alcotest.to_alcotest prop_sim_zero_branch;
          QCheck_alcotest.to_alcotest prop_direction_rob;
          QCheck_alcotest.to_alcotest prop_direction_width;
          QCheck_alcotest.to_alcotest prop_stack_totals;
          QCheck_alcotest.to_alcotest prop_identical_stacks_zero_error;
          QCheck_alcotest.to_alcotest prop_component_decomposition;
          QCheck_alcotest.to_alcotest prop_vec_checkpoint_roundtrip;
        ] );
      ( "harness",
        [
          Alcotest.test_case "matrix presets" `Quick test_matrix_sizes;
          Alcotest.test_case "checkpoint/resume bit-identical" `Slow
            test_checkpoint_resume_identical;
          Alcotest.test_case "gates and summaries" `Quick test_gate_and_summary;
          Alcotest.test_case "json report" `Quick test_json_report;
        ] );
    ]
