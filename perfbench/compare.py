"""Compare two sets of benchmark records (for example two commits).

Usage::

    python3 perfbench/compare.py --a parent/*.json --b change/*.json

Each argument is a record written by ``run.py`` to
``.perfbench/results/``. Records are grouped by workload and trace
mode; for every metric the table gives each side's median and
quartiles and the change of the medians. Sides whose resolved kernel
backends differ are refused (exit 2): their timings measure different
code. A ``sim_digest`` that differs between the sides at one seed is
reported, because it means a simulated statistic changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple


def load(paths: List[str]) -> List[Dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", nargs="+", required=True)
    parser.add_argument("--b", nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = {"a": load(args.a), "b": load(args.b)}

    backends = {name: {r["backend"] for r in records}
                for name, records in sides.items()}
    if len(backends["a"] | backends["b"]) != 1:
        print(f"refusing to compare: backends differ {backends}",
              file=sys.stderr)
        return 2

    digests = defaultdict(dict)
    for name, records in sides.items():
        for r in records:
            digests[(r["workload"], r["seed"])][name] = r["sim_digest"]
    for (workload, seed), by_side in sorted(digests.items()):
        if len(set(by_side.values())) > 1:
            print(f"sim_digest differs: {workload} seed={seed} {by_side}")

    groups = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    units = {}
    for name, records in sides.items():
        for r in records:
            for metric, entry in r["metrics"].items():
                groups[(r["workload"], r["trace"])][metric][name].append(
                    entry["value"])
                units[metric] = entry["unit"]
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"\n{workload} (trace={trace})")
        print(f"{'metric':36} {'a q1/med/q3':>30} {'b q1/med/q3':>30} "
              f"{'change':>8}")
        for metric, by_side in metrics.items():
            if set(by_side) != {"a", "b"}:
                continue
            qa, qb = quartiles(by_side["a"]), quartiles(by_side["b"])
            change = (f"{(qb[1] - qa[1]) / abs(qa[1]):+.1%}" if qa[1]
                      else "")
            print(f"{metric:36} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>30} "
                  f"{change:>8} {units[metric]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
