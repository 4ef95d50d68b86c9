(** Memory-level parallelism models (§4.3–§4.7, §4.9).

    Two estimators for the average number of overlapping DRAM accesses:

    - {b cold-miss MLP} (Eq 4.1–4.3): leverages the burstiness of cold
      misses; works well on short traces where cold misses dominate.
    - {b stride MLP} (§4.5): rebuilds a virtual instruction stream from
      the per-static-load spacing/stride/dependence distributions of a
      micro-trace and steps an abstract ROB over it; also the substrate
      for the stride-prefetcher model (Eq 4.13).

    Both are capped softly by the MSHR model (Eq 4.4) and feed the bus
    queuing model (Eq 4.5–4.6). *)

type result = {
  mlp : float;  (** raw MLP estimate, >= 1 *)
  prefetch_coverage : float;
      (** fraction of LLC load misses removed by timely prefetches *)
  prefetch_partial_factor : float;
      (** average residual latency fraction of the prefetched-but-late
          misses that remain (1 = no benefit) *)
}

val no_mlp : result
(** MLP = 1 (serialized misses) — the Fig 4.3 baseline. *)

val cold_miss :
  mt:Profile.microtrace ->
  cold_scale:float ->
  rob_size:int ->
  llc_load_miss_rate:float ->
  load_fraction:float ->
  result
(** Eq 4.1–4.3.  [llc_load_miss_rate] is the StatStack LLC miss
    probability per load; [load_fraction] the load share of the micro-op
    mix. *)

val stride :
  mt:Profile.microtrace ->
  uarch:Uarch.t ->
  llc_lines:int ->
  llc_load_miss_rate:float ->
  model_prefetch:bool ->
  result
(** §4.5's virtual-instruction-stream model.  Per-static-load miss
    probabilities come from each load's own reuse distribution and
    stride category; dependences between loads from the inter-load
    dependence distribution; the prefetcher model walks the same stream
    with a bounded table, page limits and the Eq 4.13 timeliness rule
    when [model_prefetch] holds and the configuration enables it.
    [llc_load_miss_rate] only gates the model ([no_mlp] unless positive).
    Results are memoized on exactly the inputs they read, so they do not
    depend on evaluation order. *)

val histogram_replayer : Histogram.t -> unit -> int
(** Deterministic cyclic replay of a histogram's keys, each repeated by
    its count — how the virtual stream re-materializes recorded spacing
    and stride distributions.  Exposed for tests. *)

val mshr_cap : mlp:float -> mshr_entries:int -> dram_latency:int -> float
(** Eq 4.4's soft cap: the first [mshr_entries] misses run in parallel,
    later ones overlap only partially while waiting for a free entry. *)

val bus_queue_cycles :
  mlp:float -> load_misses:float -> store_misses:float -> bus_transfer:int -> float
(** Eq 4.5–4.6: average extra bus cycles per LLC load miss, with the MLP
    rescaled for store traffic. *)
