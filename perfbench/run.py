#!/usr/bin/env python3
"""Benchmark entry point for the memsec simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--out FILE]

Run from the root of a source checkout. Builds perfbench_driver from
source with CMake into .bench_build/, then runs the named workload in
fresh driver processes, one repetition per process, for about S
seconds. Each repetition is checked: every experiment must finish
without errors or timing violations, the security verdicts must hold,
all repetitions must give the same result digest, and at the default
seed the digest must equal the one recorded in perfbench/digests.json.

Host times are reported at a reference host speed. The driver times a
fixed speed probe between experiments (SpeedProbe in driver.cc), and
every host time is scaled by PROBE_REFERENCE_MS over the median of all
the run's probes; rates are scaled the other way. peak_rss_mb and the
simulated metrics are not scaled.

Prints a table, then as its last line one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, the median over
the repetitions. With --trace 1 the driver alternates untraced and
traced repetitions; the metrics are the per-layer ones from the traced
repetitions (harness.finish_s from the untraced ones), plus the tracing
overhead (traced minus untraced wall_s).

--out FILE appends one JSON record per invocation, with every
repetition's values, for perfbench/compare.py. See
perfbench/WORKLOADS.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Seed whose combined result digest is recorded in digests.json.
DEFAULT_SEED = 1

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Per-layer metrics taken from the untraced repetitions: the traced
# ones also write stats.dump inside finish().
UNTRACED_LAYERS = ("harness.finish_s",)

# Median speed probe on the 4-vCPU Xeon VM the bounds were set on. The
# host's speed drifts by tens of percent over tens of seconds, which
# repetitions inside a short run cannot average away; the probe drifts
# with it.
PROBE_REFERENCE_MS = 12.0

# A repetition takes seconds; this only stops a hung driver process.
REP_TIMEOUT_S = 150
BUILD_JOBS = "4"


class BenchError(Exception):
    pass


def build(root):
    """Configure and build the driver; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources under {root / 'src'}")
    build_dir = root / ".bench_build" / "cmake"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = root / ".bench_build" / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"),
                      "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS,
                  "--target", "perfbench_driver"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return build_dir / "perfbench_driver"


def run_rep(driver, args, traced, scratch):
    cmd = [str(driver), "--workload", args.workload,
           "--seed", str(args.seed), "--scratch", str(scratch)]
    if traced:
        cmd += ["--trace", "--spans", str(scratch / "spans.jsonl")]
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"driver exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_scale(reps):
    """Factor that takes this run's host times to the reference speed."""
    return PROBE_REFERENCE_MS / statistics.median(
        ms for r in reps for ms in r["probe_ms"])


def scaled(value, unit, k):
    """A host time or rate at the reference speed; other units as is."""
    if unit in ("s", "ms", "ns"):
        return value * k
    if unit.endswith("/s"):
        return value / k
    return value


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def recorded_digest(path, workload):
    with open(path) as f:
        return json.load(f)["digests"].get(workload)


def check_reps(reps, args, digest_file):
    """Count attempted and failed checks; returns (attempted, failures)."""
    attempted = 0
    failures = []
    for rep in reps:
        attempted += rep["attempted"]
        failures += rep["failures"]
    first = reps[0]
    for rep in reps[1:]:
        attempted += 1
        if rep["digest"] != first["digest"]:
            kind = "traced" if rep["traced"] else "untraced"
            failures.append(f"{kind} repetition digest {rep['digest']} "
                            f"differs from {first['digest']}")
    if args.seed == DEFAULT_SEED:
        attempted += 1
        want = recorded_digest(digest_file, args.workload)
        if first["digest"] != want:
            failures.append(f"digest {first['digest']} differs from the "
                            f"recorded {want}")
    return attempted, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="append the run's record here")
    # For the benchmark's own tests: arm a fault.kind on the first
    # experiment.
    parser.add_argument("--inject-fault", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = HERE.parent
    try:
        driver = build(root)
        scratch = (root / ".bench_build" / "run" /
                   f"{args.workload}-{os.getpid()}")
        scratch.mkdir(parents=True, exist_ok=True)
        reps = []
        # Untraced repetitions (and, with --trace 1, a traced one after
        # each) until the next would overrun --seconds. An untraced run
        # makes at least two, so its median is never a single sample.
        min_rounds = 1 if args.trace else 2
        start = time.monotonic()
        rounds = 0
        while True:
            t0 = time.monotonic()
            reps.append(run_rep(driver, args, False, scratch))
            if args.trace:
                reps.append(run_rep(driver, args, True, scratch))
            rounds += 1
            last = time.monotonic() - t0
            if (rounds >= min_rounds
                    and time.monotonic() - start + last > args.seconds):
                break
        if args.trace:
            spans = root / ".bench_build" / (
                f"spans-{args.workload}-seed{args.seed}.jsonl")
            shutil.copyfile(scratch / "spans.jsonl", spans)
        shutil.rmtree(scratch)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    attempted, failures = check_reps(reps, args,
                                     HERE / "digests.json")
    k = host_scale(reps)
    units = {**END_TO_END, **PER_LAYER}
    for r in reps:
        for section in ("metrics", "layers"):
            r[section] = {n: scaled(v, units[n], k)
                          for n, v in r[section].items()}
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    def series(group, section, name):
        return [r[section][name] for r in group]

    print(f"perfbench {args.workload} seed={args.seed}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions, "
          f"digest {reps[0]['digest']}")
    print(f"host speed probe: median {PROBE_REFERENCE_MS / k:.3f} ms; "
          f"host times scaled by {k:.4f} to {PROBE_REFERENCE_MS} ms")
    print(f"{'metric':34} {'unit':>10} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>3}")
    summary = {}
    for name, unit in END_TO_END.items():
        q1, med, q3 = quartiles(series(untraced, "metrics", name))
        summary[name] = med
        print(f"{name:34} {unit:>10} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{len(untraced):3d}")
    failed_frac = len(failures) / attempted
    print(f"{'failed_frac':34} {'ratio':>10} {failed_frac:14.6g}   "
          f"({len(failures)} of {attempted} checks)")
    paper_err = reps[0]["paper_err"]
    print(f"{'paper_err':34} {'ratio':>10} "
          + (f"{paper_err:14.6g}" if paper_err is not None
             else f"{'n/a':>14}")
          + "   (simulated; figure_campaign's 4-profile subset)")

    if args.trace:
        layers = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                layers[name] = (
                    statistics.median(series(traced, "metrics", "wall_s"))
                    - statistics.median(series(untraced, "metrics",
                                               "wall_s")))
            else:
                group = untraced if name in UNTRACED_LAYERS else traced
                layers[name] = statistics.median(
                    series(group, "layers", name))
        print("per layer (medians; harness.finish_s from untraced "
              "repetitions, the rest from traced ones):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:32} {unit:>10} {layers[name]:16.6g}")
        print(f"tracing overhead: {layers['trace.overhead_s']:.4f} s "
              "(traced minus untraced wall_s)")
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": summary[n], "unit": u}
                   for n, u in END_TO_END.items()}

    for f in failures:
        print(f"FAILED: {f}")
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "attempted": attempted,
                "host_scale": k,
                "failed": len(failures),
                "reps": [{"traced": r["traced"], "probe_ms": r["probe_ms"],
                          "metrics": r["metrics"], "layers": r["layers"]}
                         for r in reps],
                "metrics": {n: m["value"] for n, m in metrics.items()},
            }) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
