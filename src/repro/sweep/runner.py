"""Parallel, cached execution of sweep specs — shared by all families.

Points are independent simulations with fully deterministic seeding
(the schedule generator and every stochastic policy derive their RNG
streams from the point's config), so executing them across a
``ProcessPoolExecutor`` produces bit-identical metrics to a serial
run — the runner asserts nothing about ordering and reassembles
results in spec order.

Every family's point executor returns the one :class:`PointResult`
type and every family's sweep runs through :func:`run_grid`, so a
family contributes only its point executor, its cache directory, and
its registry entry (:mod:`repro.sweep.family`).

Completed points are persisted to a cache directory keyed on the
point's config hash; reruns (including a sweep interrupted halfway)
skip straight past them. The hash covers the workload, the policy
spec, every grid parameter, and a result-version constant. Each entry
is additionally stamped with :func:`source_fingerprint`, a hash of the
package source that can run inside a point, so an entry written by
different code is recomputed (counted as ``stale_code``) instead of
replayed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.sim.perf import run_workload
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.workloads.profiles import profile_by_name

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = Path(".repro-cache") / "sweep"

#: Package sources that never run inside a point; every other ``.py``
#: file of the package (a new simulation module included) is covered
#: by :func:`source_fingerprint`.
_FINGERPRINT_EXCLUDES = ("cli.py", "__main__.py", "report/", "analysis/lint/")

ProgressFn = Callable[[str], None]


def wall_timer() -> float:
    """The sanctioned wall-clock read for orchestration telemetry.

    Every wall-time measurement outside this module, ``repro.obs``, and
    the benchmark suite goes through this function (enforced by the
    ``telemetry-purity`` lint rule): wall clock is orchestration
    telemetry — never baseline-gated, never a simulated quantity — and
    funneling it here keeps simulation scope free of host-time reads.
    """
    return time.perf_counter()


def stderr_progress(quiet: bool = False) -> Optional[ProgressFn]:
    """The one progress policy every CLI command shares.

    Per-point progress lines go to stderr (stdout carries the result
    tables and artifacts) and flush immediately so long sweeps stay
    observable through pipes; ``quiet`` suppresses them entirely.
    Centralized here so the ``sweep``, ``attack sweep``, ``report``,
    and ``mc sweep`` commands cannot wire verbosity differently.
    """
    if quiet:
        return None

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    return progress


def hash_sources(package: Path) -> str:
    """Hash every ``.py`` file under ``package`` except
    :data:`_FINGERPRINT_EXCLUDES` (paths relative to ``package``)."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        if rel.startswith(_FINGERPRINT_EXCLUDES):
            continue
        digest.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """Hash of the package source a point can execute (once per process).

    Cache entries stamped with another fingerprint were computed by
    different code and are recomputed.
    """
    return hash_sources(Path(__file__).resolve().parents[1])


@dataclass
class PointResult:
    """Outcome of one sweep point of any family.

    ``identity`` holds exactly the columns the family's artifact writes
    next to the metrics (the point's resolved coordinates, e.g.
    ``workload``/``policy``/``ath`` or ``kind``/``params``).
    """

    key: str
    config_hash: str
    identity: Dict[str, Any]
    metrics: Dict[str, float]
    wall_clock_s: float
    cached: bool = False

    def to_json(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "config_hash": self.config_hash,
            "identity": self.identity,
            "metrics": self.metrics,
            "wall_clock_s": self.wall_clock_s,
        }

    @staticmethod
    def from_json(data: Dict[str, object], cached: bool = False) -> "PointResult":
        return PointResult(
            key=str(data["key"]),
            config_hash=str(data["config_hash"]),
            identity=dict(data["identity"]),
            metrics={k: float(v) for k, v in dict(data["metrics"]).items()},
            wall_clock_s=float(data["wall_clock_s"]),
            cached=cached,
        )


@dataclass
class SweepResult:
    """All point results of one sweep, in spec order."""

    spec: Any
    results: List[PointResult] = field(default_factory=list)
    wall_clock_s: float = 0.0
    jobs: int = 1
    #: Cache statistics from :func:`run_cached_grid` (hits, misses,
    #: recomputes, stale_code, elapsed time) — recorded into artifact
    #: provenance.
    cache_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def compute_time_s(self) -> float:
        """Summed per-point simulation time. Cached points retain the
        wall-clock of their *original* computation, so this stays a
        meaningful perf-trajectory number even on warm-cache reruns
        (unlike ``wall_clock_s``, which times cache-file reads then)."""
        return sum(r.wall_clock_s for r in self.results)

    def by_key(self) -> Dict[str, PointResult]:
        return {r.key: r for r in self.results}


def execute_point(point: SweepPoint) -> PointResult:
    """Run one perf sweep point in the current process (worker entry)."""
    started = wall_timer()
    result = run_workload(profile_by_name(point.workload), point.config)
    config = point.config
    return PointResult(
        key=point.key,
        config_hash=point.config_hash(),
        identity={
            "workload": point.workload,
            "policy": config.policy.display_name(),
            "ath": config.ath,
            "eth": config.eth_resolved,
            "abo_level": config.abo_level,
            "trefi_per_mitigation": config.trefi_per_mitigation_resolved,
        },
        metrics=result.as_metrics(),
        wall_clock_s=wall_timer() - started,
    )


def _cache_path(cache_dir: Path, config_hash: str) -> Path:
    return cache_dir / f"{config_hash}.json"


def _load_cached(cache_dir: Path, config_hash: str, from_json):
    """Revive one cache entry: ``(result or None, outcome)``, where the
    outcome names the statistic it counts toward."""
    path = _cache_path(cache_dir, config_hash)
    if not path.is_file():
        return None, "misses"
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None, "recomputes"
    if data.get("config_hash") != config_hash:
        return None, "recomputes"  # stale/corrupt entry
    if data.get("source") != source_fingerprint():
        return None, "stale_code"  # written by different code
    try:
        return from_json(data, cached=True), "hits"
    except (KeyError, TypeError, ValueError):
        return None, "recomputes"


def _store_cached(cache_dir: Path, result) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_path(cache_dir, result.config_hash)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    entry = dict(result.to_json(), source=source_fingerprint())
    tmp.write_text(json.dumps(entry, indent=1, sort_keys=True))
    os.replace(tmp, path)


def run_cached_grid(
    points,
    execute,
    from_json,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    progress: Optional[ProgressFn] = None,
    stats: Optional[Dict[str, object]] = None,
):
    """Shared cache/pool orchestration for sweeps and system shards.

    Probes the on-disk cache for every point, runs the misses through a
    ``ProcessPoolExecutor`` (or in-process when ``jobs == 1``), stores
    fresh results, and reassembles everything in point order.

    Args:
        points: Grid cells exposing ``config_hash()``.
        execute: Module-level worker ``point -> result`` (picklable);
            results expose ``key``, ``config_hash``, ``cached``,
            ``wall_clock_s``, and ``to_json()``.
        from_json: Result codec ``(data, cached) -> result`` used to
            revive cache entries (exceptions mean recompute).
        jobs: Worker processes (``1`` = serial, in-process).
        cache_dir: Per-point result cache; ``None`` disables caching.
        progress: Optional callback receiving one line per finished
            point (``[done/total] key (cached|12.3s)``) plus a final
            cache/throughput summary line.
        stats: Optional dict the runner fills with cache statistics:
            ``hits`` (revived from cache), ``misses`` (no cache
            entry), ``recomputes`` (entry unreadable or for another
            config hash), ``stale_code`` (entry written under another
            :func:`source_fingerprint`), ``executed``, ``elapsed_s``,
            ``points_per_s``.

    Returns:
        Results in the same order as ``points``.
    """
    started = wall_timer()
    total = len(points)
    results: Dict[int, object] = {}

    def note(index: int, result) -> None:
        results[index] = result
        if progress is not None:
            status = "cached" if result.cached else f"{result.wall_clock_s:.1f}s"
            progress(f"[{len(results)}/{total}] {result.key} ({status})")

    counts = dict.fromkeys(("hits", "misses", "recomputes", "stale_code"), 0)
    pending: List[int] = []
    for index, point in enumerate(points):
        cached, outcome = (
            _load_cached(cache_dir, point.config_hash(), from_json)
            if cache_dir else (None, "misses")
        )
        # Recomputes and stale_code are counted apart from plain
        # misses: unexpected ones are the cache-invalidation signal.
        counts[outcome] += 1
        if cached is not None:
            note(index, cached)
        else:
            pending.append(index)

    if pending and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(execute, points[i]): i for i in pending}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    result = future.result()
                    if cache_dir:
                        _store_cached(cache_dir, result)
                    note(index, result)
    else:
        for index in pending:
            result = execute(points[index])
            if cache_dir:
                _store_cached(cache_dir, result)
            note(index, result)

    elapsed_s = wall_timer() - started
    rate = total / elapsed_s if elapsed_s > 0 else 0.0
    if stats is not None:
        stats.update(counts)
        stats.update({
            "executed": len(pending),
            "elapsed_s": elapsed_s,
            "points_per_s": rate,
        })
    if progress is not None and total:
        progress(
            f"cache: {counts['hits']} hits, {counts['misses']} misses, "
            f"{counts['recomputes']} recomputes, {counts['stale_code']} "
            f"stale_code; {total} points in {elapsed_s:.1f}s "
            f"({rate:.1f} points/s)"
        )

    return [results[i] for i in range(total)]


def run_grid(
    spec,
    execute: Callable[[Any], PointResult],
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Execute every point of any family's ``spec``; parallel when
    ``jobs > 1``.

    Args:
        spec: The grid to run (exposes ``points()``).
        execute: The family's module-level point executor.
        jobs: Worker processes (``1`` = serial, in-process).
        cache_dir: Per-point result cache; ``None`` disables caching.
        progress: Optional callback receiving one line per finished
            point (``[done/total] key (cached|12.3s)``).
    """
    started = wall_timer()
    cache_stats: Dict[str, object] = {}
    ordered = run_cached_grid(
        spec.points(),
        execute,
        PointResult.from_json,
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
        stats=cache_stats,
    )
    return SweepResult(
        spec=spec,
        results=ordered,
        wall_clock_s=wall_timer() - started,
        jobs=jobs,
        cache_stats=cache_stats,
    )


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache_dir: Optional[Path] = DEFAULT_CACHE_DIR,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Execute every point of a perf ``spec`` (see :func:`run_grid`)."""
    return run_grid(spec, execute_point, jobs, cache_dir, progress)
