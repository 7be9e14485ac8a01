"""Compare two sets of saved benchmark results (``run.py --out``).

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Prints, per workload and metric, each side's median and quartiles and the
change of the medians.  Refuses to compare results measured with different
``cpu_count``, and results of different workloads or trace modes are never
mixed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(paths: list[str]) -> dict[tuple, dict[str, list[float]]]:
    """{(workload, trace, cpu_count): {metric: [values]}}."""
    grouped: dict[tuple, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            saved = json.load(handle)
        key = (saved["workload"], saved["trace"], saved["stamp"]["cpu_count"])
        for name, metric in saved["result"]["metrics"].items():
            grouped[key][name].append(metric["value"])
    return grouped


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    low, median, high = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{low:.4g}, {high:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    cpus = {key[2] for key in (*base, *new)}
    if len(cpus) > 1:
        print(f"compare: refusing to compare results from machines with "
              f"different cpu_count {sorted(cpus)}", file=sys.stderr)
        return 2
    for key in sorted(set(base) & set(new)):
        workload, trace, _ = key
        print(f"{workload} (trace {trace}): base n={len(next(iter(base[key].values())))}"
              f", new n={len(next(iter(new[key].values())))}")
        for name in base[key]:
            before, after = base[key][name], new[key].get(name)
            if not after:
                continue
            old, now = statistics.median(before), statistics.median(after)
            change = (now - old) / old if old else float("nan")
            print(f"  {name:40s} {summary(before):>28s} -> "
                  f"{summary(after):>28s} ({change:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
