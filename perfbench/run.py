#!/usr/bin/env python3
"""The repository's benchmark: profile -> sweep -> serve, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds perfbench/bench.exe with dune, then
runs the workload in a process of its own, so that peak RSS and the model's
memo state never leak from one workload into the next.  `--workload all` runs
the three workloads one after another, each in its own process.

Workloads (see the comment at the top of each perfbench/wl_*.ml):
  profile_suite  Profiler.profile of 1M instructions of gcc, mcf, libquantum
                 and gobmk, then a binary Profile_io save and load
  sweep_stream   Sweep.model_sweep_stream at jobs=1 over Config_space.large on
                 two 200k-instruction profiles prepared in set-up
  serve_mixed    an in-process Server with nproc - 1 workers and nproc closed-loop
                 clients: predicts, 256-point sweeps and profile uploads

End-to-end metrics (--trace 0), reported by every workload:
  setup_s           median of the run's repeated set-ups, half of them at its
                    start and half at its end (six; four for serve_mixed,
                    whose set-up starts a server)
  throughput_per_s  instructions profiled, saved and reloaded / s
                    (profile_suite); design points / s (sweep_stream): the
                    work of one round over latency_us; completed requests / s
                    (serve_mixed)
  latency_us        time of one round, each of its operations timed at its
                    fastest over the run's rounds (perfbench/timing.mli,
                    best_round): a pass over the four benchmarks
                    (profile_suite); 96 128-point slices of each profile
                    (sweep_stream).  The median predict, send to reply
                    (serve_mixed)
  peak_rss_mb       VmHWM of the workload's process
  cpi_mape, power_mape
                    model against Simulator.run on a fixed sample (see
                    perfbench/accuracy.ml), outside the timed phase

With --trace 1 the run also times the calls into each layer's public functions
and reports the per-layer metrics instead, with the traced phase's deltas from
the untraced one as its own overhead.  Failed operations and failed output
checks are counted in `failed` out of `attempted` (the failure ratio).

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Every run also writes its full report, with provenance, under .perfbench/results.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["profile_suite", "sweep_stream", "serve_mixed"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SCRATCH = ".perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "lib", "perfbench"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for path in ["dune-project", "lib", os.path.join("perfbench", "dune"), "BENCHMARK.json"]:
        if not os.path.exists(path):
            fail("run from the root of a mipp checkout (%s is missing)" % path)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")


def build():
    # Keep every file the build writes inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(SCRATCH, "cache")))
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed", 1)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def commit():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        return None
    return proc.stdout.decode().strip()


def run_workload(workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--scratch", SCRATCH]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode), 1)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        fail("%s printed no report" % workload, 1)
    return json.loads(lines[-1])


def check_metric_names(report, spec):
    for section, key in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")]:
        got = report[section]
        if got is None:
            continue
        want = [m["name"] for m in spec[key]]
        if sorted(got) != sorted(want):
            fail("%s: %s metrics %s differ from BENCHMARK.json %s"
                 % (report["workload"], section, sorted(got), sorted(want)), 1)
        for m in spec[key]:
            if got[m["name"]]["unit"] != m["unit"]:
                fail("%s: unit of %s differs from BENCHMARK.json" % (report["workload"], m["name"]), 1)


def show(report):
    w = report["workload"]
    sections = [("end_to_end", report["end_to_end"]), ("named", report["named"])]
    if report["per_layer"] is not None:
        sections.append(("per_layer", report["per_layer"]))
    for section, metrics in sections:
        for name, m in metrics.items():
            print("%-13s %-10s %-34s %16.6g %s" % (w, section, name, m["value"], m["unit"]))
    for t in report["timings"]:
        tail = ("  p%g %.6g" % (t["tail_pct"], t["tail"])) if "tail_pct" in t else ""
        print("%-13s %-10s %-34s median %.6g%s %s (n=%d)"
              % (w, "timing", t["name"], t["median"], tail, t["unit"], t["n"]))
    for c in report["checks"]:
        print("%-13s %-10s %-34s %d checked, %d mismatched"
              % (w, "check", c["name"], c["checked"], c["mismatched"]))
    print("%-13s %-10s attempted %d, failed %d, failed_ratio %.6g"
          % (w, "ops", report["attempted"], report["failed"],
             report["failed"] / max(1, report["attempted"])))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    check_checkout()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    os.makedirs(os.path.join(SCRATCH, "results"), exist_ok=True)
    provenance = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    reports = []
    for w in workloads:
        report = run_workload(w, args)
        check_metric_names(report, spec)
        report["provenance"] = dict(provenance, ocaml_version=report["ocaml_version"])
        path = os.path.join(SCRATCH, "results", "%s-%s-seed%d-trace%d.json" % (
            provenance["date_utc"].replace(":", ""), w, args.seed, args.trace))
        with open(path, "w") as f:
            json.dump(report, f, indent=1)
        show(report)
        reports.append(report)
    print(json.dumps({"provenance": provenance}))
    section = "per_layer" if args.trace else "end_to_end"
    if len(reports) == 1:
        metrics = reports[0][section]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v for r in reports for k, v in r[section].items()}
    print(json.dumps({
        "correct": all(c["mismatched"] == 0 for r in reports for c in r["checks"]),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
