(* One workload per process: bench.exe --workload W --seed N --seconds S
   --trace 0|1 prints the run's report as one JSON line. *)

let workloads = [ "profile_suite"; "sweep_stream"; "serve_mixed" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scratch = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured time (a traced run splits it in two phases)");
      ("--trace", Arg.Set_int trace, " 1: also run the traced phase and report per-layer metrics");
      ("--scratch", Arg.Set_string scratch, " directory for sockets and profile files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench.exe: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench.exe: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let r = Report.create ~workload:!workload ~trace:(!trace = 1) in
  (* A traced run splits its time between the untraced and traced phases,
     so it takes as long as an untraced one. *)
  let seed = !seed and scratch = !scratch in
  let phase_seconds = if r.trace then !seconds /. 2.0 else !seconds in
  (match !workload with
  | "profile_suite" -> Wl_profile.run r ~seed ~seconds:phase_seconds ~scratch
  | "sweep_stream" -> Wl_sweep.run r ~seed ~seconds:phase_seconds
  | _ -> Wl_serve.run r ~seed ~seconds:phase_seconds ~scratch);
  Report.e2e r "peak_rss_mb" (Report.peak_rss_mb ());
  Accuracy.report r;
  print_endline (Report.to_json r ~seed ~seconds:!seconds)
