#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a directory of run records (run.py writes one per run
to .bench_build/results/; give each set its own --results-dir) or a single
record file. For every workload and metric the script prints the median and
quartiles (statistics.quantiles, n=4) of each side and a verdict:

  worse / better  the medians differ by more than the metric's bound
  same            they differ by less
  unresolved      the quartile spread of either side, as a share of its
                  median, is wider than the bound, so the sets cannot tell
                  a change of that size from noise (unless every run of one
                  side beats every run of the other)

Per-layer metrics have no bound; their verdict column shows the relative
change of the medians only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{(workload, metric): [values]} over every record under `path`."""
    files = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".json")] if os.path.isdir(path) else [path])
    values = {}
    for name in files:
        with open(name) as handle:
            record = json.load(handle)
        workload = record["provenance"]["workload"]
        for metric, entry in record["result"]["metrics"].items():
            values.setdefault((workload, metric), []).append(entry["value"])
    return values


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values):
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(spec, base, new):
    b_med = summary(base)[0]
    n_med = summary(new)[0]
    change = (n_med - b_med) / abs(b_med) if b_med else 0.0
    if spec is None or "bound" not in spec:
        return f"{change:+.1%}"
    bound = spec["bound"]
    worse_sign = 1.0 if spec["better"] == "lower" else -1.0
    separated = max(base) < min(new) or max(new) < min(base)
    if max(spread(base), spread(new)) > bound and not separated:
        return f"unresolved ({change:+.1%})"
    if change * worse_sign > bound:
        return f"WORSE {change:+.1%}"
    if -change * worse_sign > bound:
        return f"better {change:+.1%}"
    return f"same {change:+.1%}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as handle:
        spec_file = json.load(handle)
    specs = {m["name"]: m
             for m in spec_file["end_to_end"] + spec_file["per_layer"]}
    order = {m["name"]: i for i, m in enumerate(
        spec_file["end_to_end"] + spec_file["per_layer"])}

    base, new = load(args.base), load(args.new)
    keys = sorted(set(base) & set(new),
                  key=lambda k: (k[0], order.get(k[1], len(order)), k[1]))
    if not keys:
        sys.exit("no metric appears in both result sets")
    print(f"{'workload':11s} {'metric':34s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s}  verdict")
    regressions = 0
    for workload, metric in keys:
        cells = []
        for values in (base[(workload, metric)], new[(workload, metric)]):
            median, q1, q3 = summary(values)
            cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
        result = verdict(specs.get(metric), base[(workload, metric)],
                         new[(workload, metric)])
        regressions += result.startswith("WORSE")
        print(f"{workload:11s} {metric:34s} {cells[0]:>34s} {cells[1]:>34s}"
              f"  {result}")
    only = sorted(set(base) ^ set(new))
    if only:
        print(f"# {len(only)} workload/metric pairs appear on one side only")
    print(f"# {regressions} end-to-end regressions beyond their bounds")


if __name__ == "__main__":
    main()
