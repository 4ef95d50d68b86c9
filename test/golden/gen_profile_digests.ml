(* Profile byte-identity golden.

   Prints the MD5 of both serialized forms of a sequential profile
   ([Profiler.profile ~jobs:1]) of 1M instructions of six benchmarks
   whose profiler traffic differs: big code with a DRAM phase (gcc),
   random long reuses (mcf), one perfect stride (libquantum),
   unpredictable branches (gobmk), pointer chasing (astar) and a large
   irregular heap (omnetpp).  Any change to what the profiler records,
   or to the order it records it in, moves a digest; performance work
   on the profiler's data structures must leave them all unchanged. *)

let seed = 1
let n_instructions = 1_000_000
let benchmarks = [ "gcc"; "mcf"; "libquantum"; "gobmk"; "astar"; "omnetpp" ]

let () =
  Printf.printf "seed: %d  instructions: %d  jobs: 1\n" seed n_instructions;
  List.iter
    (fun name ->
      let p =
        Profiler.profile ~jobs:1 (Benchmarks.find name) ~seed ~n_instructions
      in
      let md5 s = Digest.to_hex (Digest.string s) in
      Printf.printf "%-10s binary %s  text %s\n" name
        (md5 (Profile_io.to_binary_string p))
        (md5 (Profile_io.to_string p)))
    benchmarks
