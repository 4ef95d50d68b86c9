(** Output of one cycle-level simulation run. *)

type t = {
  r_name : string;
  r_cycles : int;
  r_instructions : int;
  r_uops : int;
  r_stack : Cpi_stack.t;
      (** Cycle accounting in the interval-model vocabulary, in cycles:
          cycles with forward progress are [Base]; stall cycles go to
          the miss event that blocked dispatch or commit ([Llc_hit]:
          loads served by L2/L3, [Dram]: loads served by DRAM).  The
          same keyed type the analytical model emits, so the two
          engines diff structurally. *)
  r_branches : int;
  r_branch_mispredicts : int;
  r_l1d : Hierarchy.level_stats;
  r_l2 : Hierarchy.level_stats;
  r_l3 : Hierarchy.level_stats;
  r_inst_misses : int * int * int;  (** L1I, L2, L3 instruction misses *)
  r_dram_loads : int;
  r_dram_stores : int;
  r_mlp : float;
      (** measured average outstanding DRAM loads while >= 1 outstanding *)
  r_prefetches_issued : int;
  r_time_series : (int * float) array;  (** (instruction count, interval CPI) *)
  r_activity : Power.activity;
}

val cpi : t -> float
(** Cycles per instruction. *)

val cpi_stack : t -> Cpi_stack.t
(** The measured CPI stack per instruction: [r_stack] scaled by
    [1 / r_instructions] (all-zero when no instructions ran). *)

val cpi_per_uop : t -> float

val mpki : t -> [ `L1 | `L2 | `L3 ] -> float
(** Data-load misses per kilo instruction at a cache level. *)

val branch_mpki : t -> float

val dram_wait_cpi : t -> float
(** The DRAM stack component per instruction — §6.6's "average time
    waiting on DRAM". *)
