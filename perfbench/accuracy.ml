(* The accuracy sample, the same in every workload: the model against
   Simulator.run on gcc and mcf (200k instructions, the sweep profiles'
   size) at four fixed design points of Config_space.large, compared as
   Sweep.of_prediction against Sweep.of_sim, outside the timed phase.
   Profiles and simulations use a fixed seed rather than the workload's:
   the error of one stream instance moves with the seed by far more than
   any regression bound, and a fixed sample makes cpi_mape and power_mape
   repeat exactly. *)

let seed = 2015
let benchmarks = [ "gcc"; "mcf" ]
let n_instructions = 200_000
let n_points = 4

let mape pairs =
  let n = List.length pairs in
  100.0
  *. List.fold_left (fun s (model, truth) -> s +. (Float.abs (model -. truth) /. truth)) 0.0 pairs
  /. float_of_int n

let report (r : Report.t) =
  let space = Config_space.large in
  let rng = Rng.create seed in
  let indices = List.init n_points (fun _ -> Rng.int rng (Config_space.size space)) in
  let pairs =
    List.concat_map
      (fun b ->
        let spec = Benchmarks.find b in
        let p = Profiler.profile spec ~seed ~n_instructions in
        List.map
          (fun index ->
            let u = Config_space.config_of_index space index in
            let m = Sweep.of_prediction u ~index (Interval_model.predict u p) in
            let s = Sweep.of_sim u ~index (Simulator.run u spec ~seed ~n_instructions) in
            ((m.Sweep.sw_cpi, s.Sweep.sw_cpi), (m.sw_watts, s.sw_watts)))
          indices)
      benchmarks
  in
  Report.e2e r "cpi_mape" (mape (List.map fst pairs));
  Report.e2e r "power_mape" (mape (List.map snd pairs));
  Report.size r "accuracy"
    (Printf.sprintf "%s x large[%s] at %d instructions, seed %d" (String.concat "," benchmarks)
       (String.concat "," (List.map string_of_int indices))
       n_instructions seed)
