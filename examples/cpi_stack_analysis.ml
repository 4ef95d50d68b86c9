(* CPI stacks (§6.4, Fig 6.1): where do the cycles go?

     dune exec examples/cpi_stack_analysis.exe -- [benchmark...]

   Builds the model's CPI stack next to the simulator's for each requested
   benchmark, then demonstrates the §7.1 methodology: read the dominant
   component off the stack and fix exactly that bottleneck. *)

let stack_row name total parts =
  name :: Table.fmt_f total
  :: List.map (fun v -> Table.fmt_f v) parts

let analyze name =
  let workload = Benchmarks.find name in
  let n = 200_000 in
  let profile = Profiler.profile workload ~seed:11 ~n_instructions:n in
  let pred = Interval_model.predict Uarch.reference profile in
  let sim = Simulator.run Uarch.reference workload ~seed:11 ~n_instructions:n in
  let pi = pred.pr_instructions in
  let si = float_of_int sim.r_instructions in
  let model_parts =
    List.map (fun (_, v) -> v /. pi)
      (Cpi_stack.labeled_alist pred.pr_components)
  in
  let sim_parts =
    List.map (fun (_, v) -> v /. si) (Cpi_stack.labeled_alist sim.r_stack)
  in
  Table.section (Printf.sprintf "CPI stack: %s" name);
  Table.print
    ~header:[ "source"; "CPI"; "base"; "branch"; "icache"; "llc-hit"; "dram" ]
    ~rows:
      [
        stack_row "model" (Interval_model.cpi pred) model_parts;
        stack_row "simulator" (Sim_result.cpi sim) sim_parts;
      ];
  (* Visual: one proportional bar per source (b=base r=branch i=icache
     l=llc-hit d=dram). *)
  let bar parts =
    Table.stack_bar ~width:48
      (List.map2 (fun c v -> (c, v)) [ 'b'; 'r'; 'i'; 'l'; 'd' ] parts)
  in
  Printf.printf "model     |%s|\n" (bar model_parts);
  Printf.printf "simulator |%s|  (b=base r=branch i=icache l=llc d=dram)\n"
    (bar sim_parts);
  (* §7.1: act on the dominant component. *)
  let components = Cpi_stack.labeled_alist pred.pr_components in
  let dominant, _ =
    List.fold_left
      (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
      ("base", 0.0) components
  in
  let suggestion =
    match dominant with
    | "dram" -> "memory bound: grow the LLC, add a prefetcher, or raise MLP (more MSHRs)"
    | "branch" -> "branch bound: invest in a better predictor"
    | "icache" -> "front-end bound: grow the L1I"
    | "llc-hit" -> "latency-chain bound: faster L3 or a bigger L2"
    | _ -> "compute bound: wider dispatch or more functional units"
  in
  Printf.printf "Dominant component: %s -> %s\n" dominant suggestion

let () =
  let requested =
    if Array.length Sys.argv > 1 then
      Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
    else [ "gamess"; "mcf"; "gcc" ]
  in
  List.iter analyze requested
