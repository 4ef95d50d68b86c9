type result = {
  mlp : float;
  prefetch_coverage : float;
  prefetch_partial_factor : float;
}

let no_mlp = { mlp = 1.0; prefetch_coverage = 0.0; prefetch_partial_factor = 1.0 }

let normalized_load_depth (mt : Profile.microtrace) =
  match Histogram.normalize mt.mt_load_depth with
  | [] -> [ (1, 1.0) ]
  | dist -> dist

(* Average number of cold misses in a ROB-sized window containing at least
   one, interpolated between profiled ROB sizes. *)
let cold_per_rob (cold : Profile.cold_stats) rob =
  let sizes = cold.cold_rob_sizes in
  let n = Array.length sizes in
  if n = 0 then 0.0
  else begin
    let value i =
      if cold.cold_windows_hit.(i) = 0 then 0.0
      else float_of_int cold.cold_total.(i) /. float_of_int cold.cold_windows_hit.(i)
    in
    if n = 1 || rob <= sizes.(0) then value 0
    else begin
      let rec find i = if i >= n - 2 || sizes.(i + 1) >= rob then i else find (i + 1) in
      let i = find 0 in
      let x1 = float_of_int sizes.(i) and x2 = float_of_int sizes.(i + 1) in
      let y1 = value i and y2 = value (i + 1) in
      y1 +. ((y2 -. y1) *. (float_of_int rob -. x1) /. (x2 -. x1))
    end
  end

let cold_miss ~(mt : Profile.microtrace) ~cold_scale ~rob_size ~llc_load_miss_rate
    ~load_fraction =
  let loads = Isa.Class_counts.get mt.mt_mix Isa.Load in
  if loads = 0 || llc_load_miss_rate <= 0.0 then no_mlp
  else begin
    let m = Float.min 1.0 llc_load_miss_rate in
    let f = normalized_load_depth mt in
    let cold_loads = cold_scale *. float_of_int (max 0 (mt.mt_mem_cold - mt.mt_store_cold)) in
    let total_misses = float_of_int loads *. m in
    let cold_frac = Float.min 1.0 (cold_loads /. Float.max 1.0 total_misses) in
    let m_cf = Float.max 0.0 (m -. (cold_loads /. float_of_int loads)) in
    let l_bar = load_fraction *. float_of_int rob_size in
    let m_cold_rob = cold_per_rob mt.mt_cold rob_size in
    let survive l = (1.0 -. m) ** float_of_int (l - 1) in
    (* Eq 4.1: independent cold misses within a cold-miss-bearing ROB. *)
    let mlp_cold =
      List.fold_left (fun acc (l, fl) -> acc +. (survive l *. m_cold_rob *. fl)) 0.0 f
    in
    (* Eq 4.2: conflict/capacity misses, assumed uniformly spread. *)
    let mlp_cf =
      List.fold_left (fun acc (l, fl) -> acc +. (survive l *. m_cf *. l_bar *. fl)) 0.0 f
    in
    (* Eq 4.3: weighted combination. *)
    let mlp = (cold_frac *. mlp_cold) +. ((1.0 -. cold_frac) *. mlp_cf) in
    { no_mlp with mlp = Float.max 1.0 mlp }
  end

(* ---- Stride MLP: virtual instruction stream (§4.5) ---- *)

type vload = {
  v_pos : int;  (* micro-op position in the virtual stream *)
  v_static : int;  (* index into the static-load table *)
  mutable v_parent : int;  (* index of the load this one depends on; -1 *)
  mutable v_miss : bool;  (* LLC miss before prefetching *)
  mutable v_covered : bool;  (* miss removed by a timely prefetch *)
  mutable v_partial : float;  (* residual latency factor when late, else 1 *)
}

(* Deterministic replay of a histogram: keys repeated by count, cycled.
   The entry arrays are memoized by histogram id: sweeps replay the same
   frozen distributions once per design point.  Mutex-protected: sweeps
   evaluate design points on parallel domains. *)
let replay_memo : (int, (int * int) array) Hashtbl.t = Hashtbl.create 4096
let replay_memo_mutex = Mutex.create ()

let histogram_replayer h =
  let entries =
    match
      Mutex.protect replay_memo_mutex (fun () ->
          Hashtbl.find_opt replay_memo (Histogram.id h))
    with
    | Some e -> e
    | None ->
      let e = Array.of_list (Histogram.to_sorted_list h) in
      Mutex.protect replay_memo_mutex (fun () ->
          Hashtbl.replace replay_memo (Histogram.id h) e);
      e
  in
  if Array.length entries = 0 then fun () -> 0
  else begin
    let idx = ref 0 and left = ref (snd entries.(0)) in
    fun () ->
      if !left = 0 then begin
        idx := (!idx + 1) mod Array.length entries;
        left := snd entries.(!idx)
      end;
      decr left;
      fst entries.(!idx)
  end

let build_stream ~(mt : Profile.microtrace) ~llc_lines rng =
  let statics = Array.of_list mt.mt_static_loads in
  let stream = ref [] in
  Array.iteri
    (fun si (sl : Profile.static_load) ->
      let category = Stride_class.classify sl in
      let miss_prob =
        match category with
        | Stride_class.Unique -> 1.0
        | Stride_class.Strided _ | Stride_class.Random_strided ->
          Statstack.miss_ratio (Lazy.force sl.sl_stack) ~cache_lines:llc_lines
      in
      let next_spacing = histogram_replayer sl.sl_spacing in
      let pos = ref sl.sl_first_pos in
      (* Strided loads miss on a regular cadence (every 1/p-th access);
         random ones miss probabilistically. *)
      let regular = match category with Stride_class.Strided _ -> true | _ -> false in
      let period = if miss_prob > 0.0 then 1.0 /. miss_prob else infinity in
      let acc = ref (period /. 2.0) in
      for k = 0 to sl.sl_count - 1 do
        let miss =
          if miss_prob >= 1.0 then true
          else if miss_prob <= 0.0 then false
          else if regular then begin
            acc := !acc +. 1.0;
            if !acc >= period then begin
              acc := !acc -. period;
              true
            end
            else false
          end
          else Rng.bernoulli rng miss_prob
        in
        stream :=
          { v_pos = !pos; v_static = si; v_parent = -1; v_miss = miss;
            v_covered = false; v_partial = 1.0 }
          :: !stream;
        if k < sl.sl_count - 1 then pos := !pos + max 1 (next_spacing ())
      done)
    statics;
  let arr = Array.of_list !stream in
  Array.sort
    (fun a b -> if a.v_pos < b.v_pos then -1 else if a.v_pos > b.v_pos then 1 else 0)
    arr;
  (statics, arr)

let impose_dependences ~(mt : Profile.microtrace) rng stream =
  (* P(depth = 1) from the inter-load dependence distribution is the
     probability a load heads its own chain; the rest chain to the nearest
     preceding load. *)
  let f1 =
    match Histogram.normalize mt.mt_load_depth with
    | [] -> 1.0
    | dist -> (
      match List.assoc_opt 1 dist with Some p -> p | None -> 0.0)
  in
  Array.iteri
    (fun i v -> if i > 0 && Rng.bernoulli rng (1.0 -. f1) then v.v_parent <- i - 1)
    stream

let model_prefetcher ~(uarch : Uarch.t) ~statics ~(stream : vload array) =
  let pf = uarch.prefetcher in
  if not pf.pf_enabled then ()
  else begin
    let page = uarch.memory.dram_page_bytes in
    let deff = float_of_int uarch.core.dispatch_width in
    let cdram = float_of_int uarch.memory.dram_latency in
    let rob = uarch.core.rob_size in
    (* Bounded LRU table of static loads, emulating prefetch-table reach. *)
    let in_table : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let clock = ref 0 in
    let evict_if_needed () =
      if Hashtbl.length in_table > pf.pf_table_entries then begin
        let victim = ref (-1) and best = ref max_int in
        Hashtbl.iter
          (fun k stamp -> if stamp < !best then begin best := stamp; victim := k end)
          in_table;
        if !victim >= 0 then Hashtbl.remove in_table !victim
      end
    in
    let next_occurrence = Array.make (Array.length stream) (-1) in
    let last_of_static = Hashtbl.create 64 in
    for i = Array.length stream - 1 downto 0 do
      let s = stream.(i).v_static in
      next_occurrence.(i) <-
        (match Hashtbl.find_opt last_of_static s with Some j -> j | None -> -1);
      Hashtbl.replace last_of_static s i
    done;
    (* Per-static classification hoisted out of the stream walk.  Only
       single-stride loads are prefetchable: the hardware detector needs a
       repeated constant stride, so alternating-stride (FILTER-2+) loads
       keep resetting its confidence. *)
    let in_page_strided =
      Array.map
        (fun (sl : Profile.static_load) ->
          match Stride_class.classify sl with
          | Stride_class.Strided [ s ] -> abs s < page
          | Stride_class.Strided _ | Stride_class.Unique
          | Stride_class.Random_strided -> false)
        statics
    in
    Array.iteri
      (fun i v ->
        incr clock;
        let sl : Profile.static_load = statics.(v.v_static) in
        let strided_in_page = in_page_strided.(v.v_static) in
        let was_tracked = Hashtbl.mem in_table sl.sl_static_id in
        Hashtbl.replace in_table sl.sl_static_id !clock;
        evict_if_needed ();
        (* The hardware table persists across sampling windows: when the
           working set of static loads fits it, every load is tracked from
           its first in-window occurrence; the LRU emulation only matters
           under table pressure. *)
        let table_fits = Array.length statics <= pf.pf_table_entries in
        (* First in-window occurrence of a tracked strided load: its
           trigger fired in the previous (unsampled) window; credit it
           using the load's recorded recurrence spacing. *)
        if table_fits && strided_in_page && (not was_tracked) && v.v_miss
           && not v.v_covered
        then begin
          let gap = int_of_float (Histogram.mean sl.sl_spacing) in
          if gap >= rob then v.v_covered <- true
          else if gap > 0 then
            v.v_partial <-
              Float.min v.v_partial
                (Float.max 0.0 ((cdram -. (float_of_int gap /. deff)) /. cdram))
        end;
        if (was_tracked || table_fits) && strided_in_page then begin
          (* The stride is established: upcoming occurrences can be
             prefetched.  Walk to the next occurrence that actually
             misses (intervening same-line accesses hit anyway) and apply
             the Eq 4.13 timeliness rule to it. *)
          let rec next_miss j =
            if j < 0 then -1
            else if stream.(j).v_miss && not stream.(j).v_covered then j
            else next_miss next_occurrence.(j)
          in
          let j = next_miss next_occurrence.(i) in
          if j >= 0 then begin
            let gap = stream.(j).v_pos - v.v_pos in
            if gap >= rob then stream.(j).v_covered <- true
            else
              stream.(j).v_partial <-
                Float.min stream.(j).v_partial
                  (Float.max 0.0 ((cdram -. (float_of_int gap /. deff)) /. cdram))
          end
        end)
      stream
  end

let windowed_mlp ~rob_size ~total_uops (stream : vload array) =
  let n = Array.length stream in
  if n = 0 then 1.0
  else begin
    let sum_mlp = ref 0.0 and windows_with_miss = ref 0 in
    let lo = ref 0 in
    let wstart = ref 0 in
    while !wstart < total_uops do
      let wend = !wstart + rob_size in
      (* Collect loads in [wstart, wend). *)
      let first = !lo in
      let last = ref first in
      while !last < n && stream.(!last).v_pos < wend do incr last done;
      (* Independent misses: no miss on the (chained) path to an earlier
         miss within the window. *)
      let misses = ref 0 in
      let miss_on_chain = Array.make (max 1 (!last - first)) false in
      for i = first to !last - 1 do
        let v = stream.(i) in
        let parent_flag =
          if v.v_parent >= first && v.v_parent < !last then
            miss_on_chain.(v.v_parent - first)
          else false
        in
        let is_miss = v.v_miss && not v.v_covered in
        if is_miss && not parent_flag then incr misses;
        miss_on_chain.(i - first) <- parent_flag || is_miss
      done;
      if !misses > 0 then begin
        incr windows_with_miss;
        sum_mlp := !sum_mlp +. float_of_int !misses
      end;
      lo := !last;
      wstart := wend
    done;
    if !windows_with_miss = 0 then 1.0
    else Float.max 1.0 (!sum_mlp /. float_of_int !windows_with_miss)
  end

(* The stride model depends on the configuration only through the LLC
   size, ROB size and (when prefetching) the prefetcher/memory/width
   parameters, and on the LLC miss rate only through whether it is
   positive; a design-space sweep re-evaluates each micro-trace for a
   handful of such combinations, so memoize.  The micro-trace is
   identified by its (immutable, process-unique) reuse-histogram id.
   The key holds every input [stride_uncached] reads, so the memo cannot
   make the answer depend on evaluation order. *)
type stride_key = {
  k_histogram : int;
  k_llc_lines : int;
  k_rob : int;
  k_misses : bool;  (* the LLC miss rate is positive *)
  k_prefetch : bool;  (* the prefetcher is modeled; the fields below are 0 if not *)
  k_table_entries : int;
  k_dispatch_width : int;
  k_dram_latency : int;
  k_dram_page_bytes : int;
}

let stride_memo : (stride_key, result) Hashtbl.t = Hashtbl.create 4096

(* The shared table is consulted from parallel domains, so guard it like
   [replay_memo]; each domain additionally keeps a mutex-free front cache
   (results are deterministic, so duplicated computation across domains is
   harmless and the shared table keeps it rare). *)
let stride_memo_mutex = Mutex.create ()

let stride_local : (stride_key, result) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let stride_uncached ~(mt : Profile.microtrace) ~(uarch : Uarch.t) ~llc_lines
    ~llc_load_miss_rate ~model_prefetch =
  let loads = Isa.Class_counts.get mt.mt_mix Isa.Load in
  if loads = 0 || llc_load_miss_rate <= 0.0 then no_mlp
  else begin
    let rng = Rng.create (0x5eed + mt.mt_index) in
    let statics, stream = build_stream ~mt ~llc_lines rng in
    impose_dependences ~mt rng stream;
    if model_prefetch then model_prefetcher ~uarch ~statics ~stream;
    let mlp =
      windowed_mlp ~rob_size:uarch.core.rob_size ~total_uops:mt.mt_uops stream
    in
    (* Prefetch accounting over the original miss population. *)
    let total_misses = ref 0 and covered = ref 0 in
    let partial_sum = ref 0.0 and residual = ref 0 in
    Array.iter
      (fun v ->
        if v.v_miss then begin
          incr total_misses;
          if v.v_covered then incr covered
          else begin
            incr residual;
            partial_sum := !partial_sum +. v.v_partial
          end
        end)
      stream;
    {
      mlp;
      prefetch_coverage =
        (if !total_misses = 0 then 0.0
         else float_of_int !covered /. float_of_int !total_misses);
      prefetch_partial_factor =
        (if !residual = 0 then 1.0 else !partial_sum /. float_of_int !residual);
    }
  end

let stride ~(mt : Profile.microtrace) ~(uarch : Uarch.t) ~llc_lines
    ~llc_load_miss_rate ~model_prefetch =
  let prefetch = model_prefetch && uarch.prefetcher.pf_enabled in
  let if_prefetch v = if prefetch then v else 0 in
  let key =
    {
      k_histogram = Histogram.id mt.mt_reuse_load;
      k_llc_lines = llc_lines;
      k_rob = uarch.core.rob_size;
      k_misses = not (llc_load_miss_rate <= 0.0);
      k_prefetch = prefetch;
      k_table_entries = if_prefetch uarch.prefetcher.pf_table_entries;
      k_dispatch_width = if_prefetch uarch.core.dispatch_width;
      k_dram_latency = if_prefetch uarch.memory.dram_latency;
      k_dram_page_bytes = if_prefetch uarch.memory.dram_page_bytes;
    }
  in
  let local = Domain.DLS.get stride_local in
  match Hashtbl.find_opt local key with
  | Some r -> r
  | None ->
    let r =
      match
        Mutex.protect stride_memo_mutex (fun () ->
            Hashtbl.find_opt stride_memo key)
      with
      | Some r -> r
      | None ->
        let r =
          stride_uncached ~mt ~uarch ~llc_lines ~llc_load_miss_rate ~model_prefetch
        in
        Mutex.protect stride_memo_mutex (fun () ->
            Hashtbl.replace stride_memo key r);
        r
    in
    Hashtbl.replace local key r;
    r

let mshr_cap ~mlp ~mshr_entries ~dram_latency =
  let m = float_of_int mshr_entries in
  if mlp <= m then mlp
  else begin
    (* Eq 4.4: waiting misses overlap only for the part of the DRAM
       latency left after an entry frees up.  Entries of a burst allocate
       close together, so the average wait for a free slot is a large
       fraction of the full latency. *)
    let t = float_of_int dram_latency in
    let t_free = 0.75 *. t in
    m +. ((mlp -. m) *. ((t -. t_free) /. t))
  end

let bus_queue_cycles ~mlp ~load_misses ~store_misses ~bus_transfer =
  if load_misses <= 0.0 then 0.0
  else begin
    (* Eq 4.6: stores contend for the bus even though they do not stall
       the core. *)
    let mlp' = mlp *. ((load_misses +. store_misses) /. load_misses) in
    (* Eq 4.5: the average of 1..MLP' serialized transfers. *)
    (mlp' +. 1.0) /. 2.0 *. float_of_int bus_transfer
  end
