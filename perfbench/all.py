"""Run every benchmark workload untraced and traced, one after another.

Usage, from the root of a repro checkout::

    python3 perfbench/all.py --seed 0 --seconds 10

Each run is a separate ``run.py`` process, whose output (every
end-to-end or per-layer metric with its unit, then the result line)
passes through. The exit status is 0 only if every run was correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    declared = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            returncode = subprocess.run([
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]).returncode
            status = status or returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
