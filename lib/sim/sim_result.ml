type t = {
  r_name : string;
  r_cycles : int;
  r_instructions : int;
  r_uops : int;
  r_stack : Cpi_stack.t;
  r_branches : int;
  r_branch_mispredicts : int;
  r_l1d : Hierarchy.level_stats;
  r_l2 : Hierarchy.level_stats;
  r_l3 : Hierarchy.level_stats;
  r_inst_misses : int * int * int;
  r_dram_loads : int;
  r_dram_stores : int;
  r_mlp : float;
  r_prefetches_issued : int;
  r_time_series : (int * float) array;
  r_activity : Power.activity;
}

let cpi t =
  if t.r_instructions = 0 then 0.0
  else float_of_int t.r_cycles /. float_of_int t.r_instructions

let cpi_stack t =
  if t.r_instructions = 0 then Cpi_stack.scale t.r_stack 0.0
  else Cpi_stack.scale t.r_stack (1.0 /. float_of_int t.r_instructions)

let cpi_per_uop t =
  if t.r_uops = 0 then 0.0 else float_of_int t.r_cycles /. float_of_int t.r_uops

let mpki t level =
  let stats =
    match level with `L1 -> t.r_l1d | `L2 -> t.r_l2 | `L3 -> t.r_l3
  in
  if t.r_instructions = 0 then 0.0
  else float_of_int stats.Hierarchy.load_misses /. float_of_int t.r_instructions *. 1000.0

let branch_mpki t =
  if t.r_instructions = 0 then 0.0
  else float_of_int t.r_branch_mispredicts /. float_of_int t.r_instructions *. 1000.0

let dram_wait_cpi t =
  if t.r_instructions = 0 then 0.0
  else Cpi_stack.get t.r_stack Cpi_stack.Dram /. float_of_int t.r_instructions
