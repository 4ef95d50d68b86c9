(** The micro-architecture independent interval model (Eq 3.1).

    [predict] turns one application profile plus one micro-architecture
    into cycles, a CPI stack, and the activity factors the power model
    needs — in microseconds, which is what makes design-space exploration
    with a single profile possible (§2.6).

    Evaluation is per micro-trace by default (the TC'16 improvement:
    contention and memory burstiness only show at small time scales,
    §6.2.2/Fig 6.4); [`Combined] evaluates one averaged profile instead,
    reproducing the ISPASS'15 behaviour.

    The [options] record exposes every model component as a switch so the
    ablation experiments (Fig 3.7, Fig 4.3, Fig 4.9, Table 6.2) can
    enable them one at a time, and [overrides] lets measured
    (simulation-provided) inputs replace the statistical models — the
    "previously proposed interval model" baseline of §7.5. *)

(** Measured inputs that replace the statistical models when present. *)
type overrides = {
  ov_branch_missrate : float option;  (** mispredictions per branch *)
  ov_load_miss_ratios : (float * float * float) option;
      (** per-load L1/L2/L3 miss probabilities *)
  ov_store_miss_ratios : (float * float * float) option;
  ov_inst_miss_ratios : (float * float * float) option;
      (** per-instruction I-side miss probabilities *)
  ov_mlp : float option;
}

val no_overrides : overrides

type options = {
  combine : [ `Separate | `Combined ];
  mlp_model : [ `Cold | `Stride ];
  branch_missrate : entropy:float -> float;
      (** the trained entropy model (§3.5); default 0.5 * entropy, the
          theoretical ideal-predictor limit *)
  use_uops : bool;  (** false: count instructions, not micro-ops (§3.2) *)
  use_critical_path : bool;  (** Little's-law dispatch limit (§3.3) *)
  use_port_contention : bool;  (** port/FU limits (§3.4) *)
  model_mlp : bool;  (** false: serialize DRAM accesses (Fig 4.3) *)
  model_mshr : bool;
  model_bus : bool;
  model_llc_chain : bool;
  model_prefetch : bool;  (** honoured only with the stride MLP model *)
  overrides : overrides;
}

val default_options : options

type prediction = {
  pr_workload : string;
  pr_uarch : string;
  pr_cycles : float;
  pr_instructions : float;
  pr_uops : float;
  pr_components : Cpi_stack.t;
      (** cycles per component: [Base] is N / Deff, [Llc_hit] the
          chained-LLC-hit penalty; [pr_cycles] is their sum in
          {!Cpi_stack.all} order *)
  pr_mlp : float;  (** DRAM-miss-weighted average MLP *)
  pr_branch_mispredicts : float;
  pr_load_misses : float * float * float;  (** L1 / L2 / L3 counts *)
  pr_dram_loads : float;  (** after prefetch coverage *)
  pr_limits : Dispatch_model.limits;  (** micro-op-weighted averages *)
  pr_time_series : (int * float) array;  (** (instruction, micro-trace CPI) *)
  pr_activity : Power.activity;
}

val cpi : prediction -> float

val cpi_stack : prediction -> Cpi_stack.t
(** The predicted CPI stack per instruction: [pr_components] scaled by
    [1 / pr_instructions] (all-zero when no instructions ran). *)

val dram_wait_cpi : prediction -> float

val predict : ?options:options -> Uarch.t -> Profile.t -> prediction
(** [predict ?options u p] is exactly [finish (core_stage ?options u p) u]:
    one code path, split into the stages below. *)

(** {1 Stages}

    The model is evaluated in stages keyed by the [Uarch] sub-records each
    one reads, so that a sweep whose inner axes leave a stage's inputs
    unchanged can reuse that stage's result:

    - {!core_stage} reads [core], [caches] and [prefetcher] (plus the
      options and the profile).  Per micro-trace it produces the miss
      ratios, the dispatch limits and base component, the mispredictions
      with their memory-free resolution penalty, the chained-LLC-hit
      cycles, and the MLP whenever it does not depend on the memory system
      (always, except for the stride model with an enabled stride
      prefetcher).
    - {!finish} reads [memory]: the memory term of the branch resolution,
      the DRAM part of the I-cache component, the stride MLP under
      prefetching, the MSHR cap, the bus queue and the DRAM component with
      its I-cache overlap correction; then it assembles the prediction.

    No stage reads [predictor] or [operating_point] (the power model,
    {!Power}, is the only reader of the latter), and [name] only becomes
    [pr_uarch]. *)

type core_result
(** The core stage's result for one (options, configuration, profile). *)

val core_stage : ?options:options -> Uarch.t -> Profile.t -> core_result

val finish : core_result -> Uarch.t -> prediction
(** [finish c u] completes a prediction for [u], which must agree with the
    configuration [c] was computed for on [core], [caches] and
    [prefetcher] ({!same_core_inputs}); [memory] and everything else may
    differ. *)

val same_core_inputs : Uarch.t -> Uarch.t -> bool
(** The two configurations have structurally equal [core], [caches] and
    [prefetcher]: one {!core_stage} result serves both. *)

val same_inputs : Uarch.t -> Uarch.t -> bool
(** [same_core_inputs] and equal [memory]: the two predictions differ at
    most in [pr_uarch]. *)
