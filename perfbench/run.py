#!/usr/bin/env python3
"""End-to-end benchmark of faultnet: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload certify|serve|ingest \
        --seed N --seconds S --trace 0|1

Builds perfbench/fnbench.exe and bin/faultnetd.exe from source with dune
(build output goes to stderr), runs the workload, and passes fnbench's
output through: the host drift probe, notes, checks and counters, then
as the last line one JSON object {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.  Run from anywhere inside a checkout; everything the
run writes stays in the checkout (_build/ and .bench_run/).

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --repeat 5

runs the workload five times (seeds N..N+4) and prints, for every
metric and for the drift probe, the median, the interquartile range and
the largest deviation from the median, each as a share of the median.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_run")
EXE = os.path.join("_build", "default", "perfbench", "fnbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "faultnetd.exe")
WORKLOADS = ("certify", "serve", "ingest")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def checkout_env():
    """Keep writes inside the checkout: no shared dune cache, and the
    compiler's and the run's temporary files under .bench_run/."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def build():
    for need in ("dune-project", os.path.join("bin", "faultnetd.ml"), os.path.join("lib", "online")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a faultnet source checkout" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    done = subprocess.run(
        [dune, "build", "--root", ROOT, EXE, DAEMON],
        cwd=ROOT, env=checkout_env(), stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")


def pin_one_cpu():
    """Run the benchmark, and with it the daemon it spawns, on one CPU.
    Left to the scheduler, client and daemon are at times split over two
    vCPUs for whole runs, and every pipe round trip then pays a cross-CPU
    wakeup: on a 2-vCPU VM the point-query p50 went from 4-6 us to
    11-17 us.  Every workload is one closed loop, so one CPU costs no
    parallelism."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(args, seed, echo):
    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(ROOT, DAEMON), "--work", WORK]
    done = subprocess.run(cmd, cwd=ROOT, env=checkout_env(), stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    if done.returncode != 0:
        fail("fnbench exited with %d" % done.returncode)
    return done.stdout.splitlines()


def spread(values):
    """(median, IQR / median, max |v - median| / median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med), max(abs(v - med) for v in values) / abs(med)


def repeat(args):
    rows, probes, failed = {}, {"int_loop_ms": [], "fp_alloc_ms": []}, 0
    for i in range(args.repeat):
        lines = run_once(args, args.seed + i, echo=False)
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            failed += 1
        for name, m in result["metrics"].items():
            rows.setdefault((name, m["unit"]), []).append(m["value"])
        print("seed %d: %s" % (args.seed + i, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())))
        for line in lines:
            if line.startswith("probe "):
                print("        " + line)
                for kv in line.split()[1:]:
                    k, v = kv.split("=")
                    probes[k].append(float(v))
    print("%s: %d runs, seeds %d..%d, %d incorrect"
          % (args.workload, args.repeat, args.seed, args.seed + args.repeat - 1, failed))
    print("%-32s %16s %8s %8s" % ("metric", "median", "IQR", "maxdev"))
    for (name, unit), values in list(rows.items()) + [((k, "probe"), v) for k, v in probes.items()]:
        med, iqr, dev = spread(values)
        print("%-32s %12.6g %-3s %7.1f%% %7.1f%%" % (name, med, unit[:3], 100 * iqr, 100 * dev))
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description="faultnet end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--repeat", type=int, default=0,
                   help="run the workload this many times and print each metric's spread")
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    pin_one_cpu()
    if args.repeat > 0:
        sys.exit(repeat(args))
    run_once(args, args.seed, echo=True)


if __name__ == "__main__":
    main()
