#!/usr/bin/env python3
"""Builds and runs the asup benchmark on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload aol_mix --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 makes
the traced run that gives the per-layer metrics and writes its spans to
.bench_build/trace/. Both variants of the benchmark binary (default build
and -DASUP_METRICS=OFF) are built from source under .bench_build/ first;
an up-to-date build costs a second.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it print every metric with its unit,
the failed checks by defense and check, the answer digests and the run's
provenance. The full record of the run is also written to
.bench_build/results/ (or --results-dir), which compare.py reads.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

SCHEMA_VERSION = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("aol_mix", "probe_scan", "churn_mix")
# Every child process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150
TRACED_SECONDS_CAP = 12

# AS-DECLINE keeps its private answer cache across corpus publishes (a known
# gap of that engine), so on churn_mix it serves answers cached in an earlier
# epoch: they may hold documents a publish deleted, or a status the new
# |Sel(q)| no longer gives. The benchmark labels failures on exactly those
# answers "<check>.stale". They count as failed operations, itemized by
# check, but do not make the run incorrect; any other failure does.
KNOWN_GAPS = {"churn_mix": {"decline.subset.stale", "decline.status.stale"}}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def run_step(command):
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        print(result.stdout[-6000:], file=sys.stderr)
        fail("build step failed: " + " ".join(command))


def build(variant, metrics):
    """Configures (once) and builds one variant; returns its binary."""
    build_dir = os.path.join(BUILD, variant)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_step(["cmake", "-S", HERE, "-B", build_dir, *generator,
                  "-DCMAKE_BUILD_TYPE=Release",
                  "-DASUP_METRICS=" + ("ON" if metrics else "OFF")])
    run_step(["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(len(os.sched_getaffinity(0)))])
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, *args):
    try:
        result = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                                text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} {' '.join(args)} timed out")
    if result.returncode != 0:
        fail(f"{binary} exited with code {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def source_revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            return git.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for directory in ("src", os.path.basename(HERE)):
        for base, dirs, files in os.walk(os.path.join(ROOT, directory)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def judge(workload, out, expected):
    """Returns the reasons the run is not correct (empty if it is).

    The benchmark binary reports whole-run check failures (digest
    mismatches, state round trips, trace sums) as inconsistencies and
    per-answer ones as failures by mode and check."""
    problems = list(out["inconsistencies"])
    allowed = KNOWN_GAPS.get(workload, set())
    problems += [f"{key}: {count} answers" for key, count
                 in sorted(out["failures"].items()) if key not in allowed]
    for metric in expected:
        value = out["metrics"].get(metric["name"], {}).get("value")
        if value is None or not math.isfinite(value):
            problems.append(f"metric {metric['name']} missing")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir",
                        default=os.path.join(BUILD, "results"))
    args = parser.parse_args()

    # Both variants every time, so whichever run comes first in a fresh
    # checkout pays for both builds.
    default_build = build("on", metrics=True)
    metrics_off_build = build("off", metrics=False)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, f"{args.workload}.seed{args.seed}.jsonl")
        # The traced run's qps loops are capped so that it costs about as
        # much as a timed run.
        seconds = min(args.seconds, TRACED_SECONDS_CAP)
        out = run_binary(default_build, "--mode", "traced", *common,
                         "--seconds", str(seconds),
                         "--trace-out", trace_path)
        off = run_binary(metrics_off_build, "--mode", "qps", *common,
                         "--seconds", str(seconds / 2))
        on_qps = out["provenance"]["serial_qps"]
        for defense in ("plain", "arbi"):
            off_qps = off["metrics"][f"serial_qps.{defense}"]["value"]
            out["metrics"][f"obs.metrics_off_gain.{defense}"] = {
                "value": off_qps / on_qps[defense], "unit": "ratio"}
        out["provenance"]["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        out = run_binary(default_build, "--mode", "timed", *common,
                         "--seconds", str(args.seconds))

    expected = expected_metrics(args.trace)
    problems = judge(args.workload, out, expected)
    metrics = {m["name"]: out["metrics"][m["name"]] for m in expected
               if m["name"] in out["metrics"]}
    result = {"correct": not problems, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}

    provenance = {"schema_version": SCHEMA_VERSION,
                  "revision": source_revision(), "cpu": cpu_model(),
                  "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  **out["provenance"]}
    record = {"provenance": provenance, "failures": out["failures"],
              "inconsistencies": out["inconsistencies"],
              "digests": out["digests"], "problems": problems,
              "result": result}
    os.makedirs(args.results_dir, exist_ok=True)
    record_path = os.path.join(
        args.results_dir,
        f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    failures = " ".join(f"{k}={v}" for k, v in sorted(out["failures"].items()))
    print(f"# failed {out['failed']} of {out['attempted']} operations"
          + (f": {failures}" if failures else ""))
    for problem in problems:
        print(f"# incorrect: {problem}")
    if out["digests"]:
        print("# digests " + json.dumps(out["digests"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
