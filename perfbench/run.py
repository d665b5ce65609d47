"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a repro checkout::

    python3 perfbench/run.py --workload mc-policy --seed 0 --seconds 10 --trace 0

``--trace 0`` times untraced passes for ``--seconds`` seconds (at least
the workload's ``min_passes``) and reports the end-to-end
metrics listed in ``BENCHMARK.json``. ``--trace 1`` runs one traced pass and reports the per-layer metrics;
for mc-policy and system-qos it first makes an untraced pass whose
results the traced pass must reproduce. The last line
of standard output is the result object; the lines before it repeat
each metric with its unit, the run's ``sim_digest``, provenance and the
calibration-loop time. A fuller record, spans included, is written to
``.perfbench/results/``.

The program under test is imported from ``src/`` of the working
directory; the run exits with status 2, printing no result, when that
directory holds no repro checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from calibration import REFERENCE_S, loop_s, scaled

HERE = Path(__file__).resolve().parent
#: Set-up is timed in this many fresh interpreters; the median counts.
SETUP_PROBES = 3


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import the program, build the workload, and exit "
        "(the process whose wall time is setup_s)",
    )
    return parser.parse_args(argv)


def load_program(root: Path) -> None:
    """Import ``repro`` from ``root/src`` and pin the run's environment."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro checkout at {root} (src/repro missing); "
            "run from the root of the repository"
        )
    sys.path.insert(0, str(src))
    # The benchmark measures the default pure-Python backend.
    os.environ["REPRO_BACKEND"] = "pure"
    # Keep git's repository discovery (artifact provenance) inside the
    # checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {src}")


def setup_probe(args: argparse.Namespace, root: Path) -> Tuple[float, float]:
    """Raw and calibrated wall time of a fresh interpreter that only
    sets the workload up."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    before = loop_s()
    started = time.perf_counter()
    subprocess.run(command, cwd=root, check=True, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - started
    return seconds, scaled(seconds, before, loop_s())


def digest_repeats(root: Path, workload: str, seed: int, digest: str) -> bool:
    """Whether ``digest`` equals that of every earlier run of the same
    code at this workload and seed.

    Runs are keyed on a hash of the program's and the benchmark's
    sources and recorded in ``.perfbench/digests.json``. This is the
    repeat check at seeds that have no committed baseline.
    """
    sources = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        sources.update(str(path.relative_to(root)).encode())
        sources.update(path.read_bytes())
    key = f"{sources.hexdigest()[:16]}/{workload}/{seed}"
    ledger_path = root / ".perfbench" / "digests.json"
    ledger = (json.loads(ledger_path.read_text())
              if ledger_path.is_file() else {})
    known = ledger.setdefault(key, digest)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)
    return known == digest


def _nearest_rank(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer, traced) -> Dict[str, float]:
    """Per-layer metrics from a traced pass's spans and counts.

    Every metric is defined on every workload; a layer the workload
    does not reach reports 0.
    """
    from workloads import (
        FAMILY_RUNNERS, MC_POLICIES, QOS_SCENARIOS, QOS_SCHED_SCENARIOS,
    )

    total = tracer.total
    m: Dict[str, float] = {
        "workloads.generate_requests_s": total("workloads.generate_requests"),
        "system.client_requests_s": total("system.client_requests"),
    }
    serve_spans = tracer.find("mc.serve_streams")
    served = sum(s["requests"] for s in serve_spans)
    serve_policy = {p: total("mc.serve_streams", policy=p)
                    for p in MC_POLICIES}
    serve_scenario = {s: total("mc.serve_streams", scenario=s)
                      for s in QOS_SCENARIOS}
    for policy, seconds in serve_policy.items():
        m[f"mc.serve_s.{policy}"] = seconds
    m["mc.serve_us_per_request"] = (
        1e6 * sum(map(tracer.duration, serve_spans)) / served if served
        else 0.0)
    for scenario, seconds in serve_scenario.items():
        m[f"mc.serve_streams_s.{scenario}"] = seconds
    for sched, scenario in QOS_SCHED_SCENARIOS.items():
        m[f"mc.sched.extra_s.{sched}"] = (
            serve_scenario[scenario] - serve_scenario["noisy-frfcfs"]
            if serve_scenario[scenario] else 0.0)
    for policy in MC_POLICIES[:-1]:
        m[f"mitigations.extra_s.{policy}"] = (
            serve_policy[policy] - serve_policy["null"]
            if serve_policy[policy] else 0.0)
    self_times = tracer.self_times()
    m["system.residual_s"] = sum(
        self_times[s["id"]] for s in tracer.find("system.run_system"))

    perf_points = tracer.find("sim.perf.point")
    perf_s = [tracer.duration(s) for s in perf_points]
    perf_acts = sum(s["total_acts"] for s in perf_points)
    m["sim.perf.point_s.p50"] = _nearest_rank(perf_s, 0.50)
    m["sim.perf.point_s.p95"] = _nearest_rank(perf_s, 0.95)
    m["sim.perf.point_s.max"] = max(perf_s, default=0.0)
    m["sim.perf.points"] = len(perf_s)
    m["sim.perf.us_per_act"] = 1e6 * sum(perf_s) / perf_acts if perf_acts else 0.0

    m["attacks.jailbreak_curve_s"] = total("model.point", kind="jailbreak-curve")
    cold = tracer.find("sweep.family", phase="cold")
    for family in FAMILY_RUNNERS:
        m[f"sweep.family_s.{family}"] = total(
            "sweep.family", family=family, phase="cold")
    m["sweep.overhead_s"] = sum(
        tracer.duration(s) - s["executed_s"] for s in cold)
    m["sweep.warm_replay_s"] = total("report.run_figures", phase="warm")
    for stat in ("hits", "misses", "recomputes"):
        m[f"sweep.cache.{stat}"] = sum(s["cache"][stat] for s in cold)
    m["report.extract_s"] = total("report.extract", phase="cold")
    m["report.check_s"] = total("report.check_results")

    m.update(traced.counts)
    m["trace.residual_s"] = traced.wall_s - tracer.root_total()
    m["trace.overhead_s"] = tracer.overhead_s
    return m


def emit(result: Dict[str, Any]) -> None:
    print(json.dumps(result, separators=(",", ":")), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    try:
        load_program(root)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = root / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, root, scratch)
    if args.setup_only:
        workload.prepare()
        return 0

    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for group in ("end_to_end", "per_layer") for m in declared[group]}
    setup_walls = ([] if args.trace
                   else [setup_probe(args, root) for _ in range(SETUP_PROBES)])
    workload.prepare()
    calibration = statistics.median(loop_s() for _ in range(3))

    passes = []
    tracer = traced = None
    try:
        started = time.perf_counter()
        more = workload.trace_reference_pass if args.trace else True
        while more:
            gc.collect()
            passes.append(workload.run_pass(calibrate=not args.trace))
            more = not args.trace and (
                len(passes) < workload.min_passes
                or time.perf_counter() - started < args.seconds)
        if args.trace:
            gc.collect()
            tracer = Tracer()
            origin = time.perf_counter()
            traced = workload.run_pass(tracer)
    except Exception:
        traceback.print_exc()
        attempted = max(1, sum(len(p.points) for p in passes))
        emit({"correct": False, "attempted": attempted,
              "failed": attempted, "metrics": {}})
        return 1

    checked = passes + ([traced] if traced is not None else [])
    reference = checked[0]
    repeats = digest_repeats(root, args.workload, args.seed, reference.digest)
    attempted = sum(len(p.points) for p in checked)
    failed = sum(
        len(p.points)
        if not repeats or p.sim_view != reference.sim_view
        else len(p.failed)
        for p in checked
    )

    if args.trace:
        metrics = layer_metrics(tracer, traced)
    else:
        wall_s = statistics.median(p.scaled_s for p in passes)
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(s for _, s in setup_walls),
            "sim_requests_per_s": reference.counts["mc.requests"] / wall_s,
            "sim_acts_per_s": reference.counts["engine.acts"] / wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    group = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in declared[group]]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(expected))} disagree "
            "with BENCHMARK.json")

    from repro.obs.provenance import run_provenance
    from repro.sim.backend import resolve_backend

    backend = resolve_backend(None).name
    provenance = run_provenance(seeds={"seed": args.seed})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": backend,
        "provenance": provenance,
        "calibration_loop_s": calibration,
        "calibration_reference_s": REFERENCE_S,
        "host_wall_s": statistics.median(p.wall_s for p in passes)
        if passes else None,
        "host_setup_s": statistics.median(r for r, _ in setup_walls)
        if setup_walls else None,
        "pass_scaled_s": [p.scaled_s for p in passes],
        "sim_digest": reference.digest,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_wall_s": setup_walls,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    if traced is not None:
        record["traced_wall_s"] = traced.wall_s
        record["spans"] = tracer.export(origin)
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"perfbench {args.workload} seed={args.seed} backend={backend} "
          f"passes={len(passes)} traced={bool(traced)}")
    print(f"sim_digest {args.workload} {reference.digest} "
          f"({'repeats' if repeats else 'DIFFERS from'} earlier runs of "
          "this code at this seed)")
    print(f"failed_share {failed / attempted:.6g} share "
          f"({failed}/{attempted} points)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"host_wall_s {record['host_wall_s']:.6g} s (uncalibrated)")
        print(f"host_setup_s {record['host_setup_s']:.6g} s (uncalibrated)")
    print(f"calibration_loop_s {calibration:.6g} s "
          f"(reference {REFERENCE_S:g} s)")
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"record {out_path.relative_to(root)}")
    emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    })
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
