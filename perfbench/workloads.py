"""The benchmark's three workloads, each a fixed batch run serially.

Every workload builds its inputs from the seed in :meth:`prepare`
(construction, plus a first-call warm-up where the batch has one, so
that cost lands in set-up time rather than in the timed pass), then
runs passes. An untraced pass
calls the program's public functions exactly as a user would; a traced
pass runs the same calls with span wrappers installed (see
:mod:`tracing`), and its simulated results must equal the untraced
ones.

Correctness of a pass: at :data:`BASELINE_SEED` every point is gated
against the committed baseline at zero tolerance through the families'
own checks. At any other seed there is no baseline, and the pass is
correct when its ``sim_digest`` matches every other pass of the run and
every earlier run of the same code at that seed (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set

from calibration import SegmentClock
from tracing import Tracer

#: The seed every committed baseline was generated at.
BASELINE_SEED = 0

MC_POLICIES = (
    "moat", "panopticon", "para", "trr", "graphene", "victim-counter", "null",
)
QOS_SCENARIOS = (
    "quiet", "noisy-frfcfs", "noisy-priority", "noisy-bwcap", "noisy-slo",
)
#: Scheduler name -> the system-qos scenario that runs it; each is
#: compared with ``noisy-frfcfs``, which serves identical streams.
QOS_SCHED_SCENARIOS = {
    "priority": "noisy-priority",
    "bw-cap": "noisy-bwcap",
    "slo": "noisy-slo",
}
#: Sweep family -> its runner as called by the report pipeline.
FAMILY_RUNNERS = {
    "attack": "run_attack_sweep",
    "sweep": "run_sweep",
    "model": "run_model_sweep",
    "system": "run_system_sweep",
}


@dataclasses.dataclass
class PassResult:
    """Outcome of one pass over a workload's batch."""

    #: Raw host time, and the same scaled to the reference host speed
    #: (``None`` for passes that do not calibrate).
    wall_s: float
    scaled_s: Optional[float]
    points: List[str]
    failed: Set[str]
    digest: str
    #: Simulated results in canonical JSON (traced == untraced check).
    sim_view: str
    #: Exact counts: ``engine.acts``, ``engine.alerts``, ``mc.requests``
    #: (plus ``mitigations.mitigation_acts`` on traced passes).
    counts: Dict[str, int]


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def digest_of(view: str) -> str:
    return hashlib.sha256(view.encode()).hexdigest()[:16]


def failed_keys(keys: Iterable[str], problems: Iterable[str]) -> Set[str]:
    """Point keys named by baseline-gate findings.

    A finding that names none of the run's points (missing or
    unreadable baseline, a point the run dropped) fails every point.
    """
    keys = list(keys)
    failed: Set[str] = set()
    for problem in problems:
        named = {k for k in keys if f" {k}: " in problem or f" {k} " in problem}
        failed |= named if named else set(keys)
    return failed


class _ChannelTally:
    """Sums ``mitigation_activations`` of the channels a call builds."""

    def __init__(self) -> None:
        self.channels: List[Any] = []
        self.total = 0

    def capture(self, record, channel, *args, **kwargs) -> None:
        self.channels.append(channel)

    def flush(self, *args, **kwargs) -> None:
        self.total += sum(c.mitigation_activations for c in self.channels)
        self.channels.clear()


def _serve_attrs(tracer: Tracer):
    def before(record, *args, **kwargs) -> None:
        record["policy"] = tracer.ancestor_attr("policy")
        record["scenario"] = tracer.ancestor_attr("scenario")

    def after(record, batch, *args, **kwargs) -> None:
        record["requests"] = len(batch)

    return before, after


def _system_patches(stack, tracer: Tracer, tally: _ChannelTally) -> None:
    """Spans inside :func:`repro.system.sim.run_system`."""
    import repro.system.crossbar as crossbar
    import repro.system.sim as system_sim
    from repro.mc.controller import MemoryController

    before, after = _serve_attrs(tracer)
    stack.enter_context(tracer.patch(
        system_sim, "client_requests", "system.client_requests"))
    stack.enter_context(tracer.patch(
        crossbar, "generate_requests", "workloads.generate_requests"))
    stack.enter_context(tracer.patch(
        MemoryController, "serve_streams", "mc.serve_streams",
        before=before, after=after))
    stack.enter_context(tracer.patch(
        system_sim, "build_mc_channel", None, after=tally.capture))


class Workload:
    """Common base; subclasses define the batch."""

    name = ""
    #: Untraced passes a run makes at least; more fit in ``--seconds``.
    min_passes = 1
    #: Whether a traced run first makes an untraced pass, which the
    #: traced pass must reproduce exactly.
    trace_reference_pass = True

    def __init__(self, seed: int, root: Path, scratch: Path) -> None:
        self.seed = seed
        self.root = root
        self.scratch = scratch

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Optional[Tracer] = None,
                 calibrate: bool = True) -> PassResult:
        """One pass over the batch; ``tracer`` records spans, and
        ``calibrate`` times it in calibrated segments (untraced only)."""
        raise NotImplementedError

    def _gated_pass(self, family, clock: SegmentClock, results, views,
                    summaries) -> PassResult:
        """Pass over ``self.points`` (one result each) of the family
        preset named like the workload, gated on its committed baseline
        at :data:`BASELINE_SEED`. ``summaries`` carry the
        ``total_acts``/``alerts``/``requests`` counts."""
        keys = [point.key for point in self.points]
        failed: Set[str] = set()
        if self.seed == BASELINE_SEED:
            artifact = {"points": {
                point.key: {
                    "config_hash": point.config_hash(),
                    "metrics": result.as_metrics(),
                }
                for point, result in zip(self.points, results)
            }}
            _, problems = family.check_against_baseline(
                artifact,
                family.default_baseline_path(self.name, root=self.root),
                rtol=0.0, atol=0.0,
            )
            failed = failed_keys(keys, problems)
        view = canonical([[k, v] for k, v in zip(keys, views)])
        return PassResult(
            wall_s=clock.raw_s,
            scaled_s=clock.scaled_s,
            points=keys,
            failed=failed,
            digest=digest_of(view),
            sim_view=view,
            counts={
                "engine.acts": sum(r.total_acts for r in summaries),
                "engine.alerts": sum(r.alerts for r in summaries),
                "mc.requests": sum(r.requests for r in summaries),
            },
        )


class McPolicy(Workload):
    """The ``mc-policy`` preset: 7 policies, single-client serve loop."""

    name = "mc-policy"

    def prepare(self) -> None:
        from repro.sweep.mc_spec import mc_preset
        from repro.workloads.requests import generate_requests

        spec = mc_preset("mc-policy").with_overrides(seed=self.seed)
        self.points = spec.points()
        kinds = tuple(p.config.policy.kind for p in self.points)
        if kinds != MC_POLICIES:
            raise RuntimeError(f"mc-policy preset changed: {kinds}")
        generate_requests(**self._stream_args(self.points[0].config))

    @staticmethod
    def _stream_args(config) -> Dict[str, Any]:
        return dict(
            workload=config.workload,
            num_subchannels=config.subchannels,
            banks_per_subchannel=config.banks,
            n_trefi=config.n_trefi,
            rows_per_bank=config.rows_per_bank,
            seed=config.seed,
            trefi_ns=config.timing.t_refi,
        )

    def run_pass(self, tracer: Optional[Tracer] = None,
                 calibrate: bool = True) -> PassResult:
        import repro.sim.mc as sim_mc

        if tracer is not None:
            return self._traced(tracer)
        results = []
        with contextlib.ExitStack() as stack:
            if calibrate:
                # Points run 1-4 s: calibrate between generation and
                # serving as well.
                _mark_before(stack, lambda: clock.mark(), (
                    (sim_mc, "run_mc_requests"),
                ))
            clock = SegmentClock(calibrate)
            for point in self.points:
                results.append(sim_mc.run_mc(point.config))
                clock.mark()
        return self._finish(clock, results)

    def _traced(self, tracer: Tracer) -> PassResult:
        """``run_mc`` split into its two public calls per point."""
        from repro.mc.controller import MemoryController
        from repro.sim.mc import build_mc_channel, run_mc_requests
        from repro.workloads.requests import generate_requests

        before, after = _serve_attrs(tracer)
        results = []
        mitigation_acts = 0
        with tracer.patch(MemoryController, "serve_streams",
                          "mc.serve_streams", before=before, after=after):
            clock = SegmentClock(calibrate=False)
            for point in self.points:
                config = point.config
                with tracer.span("mc.point", policy=config.policy.kind):
                    with tracer.span("workloads.generate_requests"):
                        requests = generate_requests(
                            **self._stream_args(config))
                    with tracer.span("sim.mc.run_mc_requests"):
                        channel = build_mc_channel(config)
                        results.append(run_mc_requests(
                            requests, config,
                            workload_name=config.workload.display_name(),
                            channel=channel,
                        ))
                    mitigation_acts += channel.mitigation_activations
                    # Free this point's stream and channel before the
                    # next one is built, as run_mc does on return.
                    del requests, channel
                clock.mark()
        result = self._finish(clock, results)
        result.counts["mitigations.mitigation_acts"] = mitigation_acts
        return result

    def _finish(self, clock: SegmentClock, results) -> PassResult:
        from repro.sweep.family import MC_FAMILY

        return self._gated_pass(
            MC_FAMILY, clock, results,
            views=[dataclasses.asdict(r) for r in results],
            summaries=results,
        )


class SystemQos(Workload):
    """The five ``system-qos`` scenarios through ``run_system``."""

    name = "system-qos"
    # Its 1-5 s scenarios track the host's slow stretches less closely
    # than mc-policy's points; the median of two passes halves that.
    min_passes = 2

    def prepare(self) -> None:
        from repro.sweep.system_spec import system_preset
        from repro.system.crossbar import client_requests

        spec = system_preset("system-qos").with_overrides(seed=self.seed)
        self.points = spec.points()
        scenarios = tuple(p.scenario for p in self.points)
        if scenarios != QOS_SCENARIOS:
            raise RuntimeError(f"system-qos preset changed: {scenarios}")
        config = self.points[0].config
        client_requests(
            config.clients[0], 0,
            subchannels=config.subchannels,
            banks=config.banks,
            n_trefi=config.n_trefi,
            rows_per_bank=config.rows_per_bank,
            seed=config.seed,
            channel=0,
            timing=config.timing,
        )

    def run_pass(self, tracer: Optional[Tracer] = None,
                 calibrate: bool = True) -> PassResult:
        from repro.system.sim import run_system

        import repro.system.sim as system_sim
        from repro.mc.controller import MemoryController

        tally = _ChannelTally()
        results = []
        calibrate = calibrate and tracer is None
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                _system_patches(stack, tracer, tally)
            elif calibrate:
                # Scenarios run 1-5 s: calibrate per stream and per
                # serve call as well.
                _mark_before(stack, lambda: clock.mark(), (
                    (system_sim, "client_requests"),
                    (MemoryController, "serve_streams"),
                ))
            span = tracer.span if tracer is not None else _no_span
            clock = SegmentClock(calibrate)
            for point in self.points:
                with span("system.run_system", scenario=point.scenario):
                    results.append(
                        run_system(point.config, jobs=1, cache_dir=None))
                tally.flush()
                clock.mark()
        result = self._finish(clock, results)
        if tracer is not None:
            result.counts["mitigations.mitigation_acts"] = tally.total
        return result

    def _finish(self, clock: SegmentClock, results) -> PassResult:
        from repro.sweep.family import SYSTEM_FAMILY

        return self._gated_pass(
            SYSTEM_FAMILY, clock, results,
            views=[_system_view(r) for r in results],
            summaries=[r.aggregate for r in results],
        )


def _system_view(result) -> Dict[str, Any]:
    """``SystemResult`` as a dict without its host-time fields."""
    view = dataclasses.asdict(result)
    for host_field in ("wall_clock_s", "jobs", "cache_hits", "cache_stats"):
        view.pop(host_field)
    return view


@contextlib.contextmanager
def _no_span(name: str, **attrs: Any):
    yield None


def _mark_before(stack, mark, targets) -> None:
    """Call ``mark()`` (start a new calibrated segment) before every
    call to each ``(owner, attr)`` target, until ``stack`` closes."""
    observer = Tracer()
    for owner, attr in targets:
        stack.enter_context(observer.patch(
            owner, attr, None, before=lambda *args, **kwargs: mark()))


class PaperReport(Workload):
    """``run_figures`` over every figure on a fresh cache, then
    ``check_results``, then a warm replay of the same figures.

    The seed fixes the order the figures run in. Shared sources are
    produced by whichever figure needs them first, so the order changes
    which call executes them but never what they compute: every seed is
    gated against the committed baselines.
    """

    name = "paper-report"
    # Every pass is gated on the committed baselines, and a second
    # 45-65 s pass would double the traced run.
    trace_reference_pass = False

    def prepare(self) -> None:
        from repro.report.figures import FIGURES
        import repro.report.pipeline  # noqa: F401  (import cost is set-up)

        self.order = list(FIGURES)
        random.Random(self.seed).shuffle(self.order)

    def run_pass(self, tracer: Optional[Tracer] = None,
                 calibrate: bool = True) -> PassResult:
        import repro.report.pipeline as pipeline

        cache_root = Path(tempfile.mkdtemp(prefix="report-", dir=self.scratch))
        options = pipeline.ReportOptions(cache_root=cache_root, jobs=1)
        tally = _ChannelTally()
        calibrate = calibrate and tracer is None
        try:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    self._patches(stack, tracer, tally)
                elif calibrate:
                    # One calibrated segment per sweep source: each
                    # family runner call closes the previous segment.
                    _mark_before(stack, lambda: clock.mark(), (
                        (pipeline, attr) for attr in FAMILY_RUNNERS.values()
                    ))
                span = tracer.span if tracer is not None else _no_span
                clock = SegmentClock(calibrate)
                with span("report.run_figures", phase="cold"):
                    cold = pipeline.run_figures(self.order, options)
                clock.mark()
                with span("report.check_results", phase="cold"):
                    pipeline.check_results(cold, baseline_root=self.root,
                                           rtol=0.0, atol=0.0)
                clock.mark()
                with span("report.run_figures", phase="warm"):
                    warm = pipeline.run_figures(self.order, options)
                clock.mark()
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)
        result = self._finish(clock, cold, warm)
        if tracer is not None:
            result.counts["mitigations.mitigation_acts"] = tally.total
        return result

    def _patches(self, stack, tracer: Tracer, tally: _ChannelTally) -> None:
        import repro.report.figures as figures
        import repro.report.pipeline as pipeline
        import repro.sweep.attack_runner as attack_runner
        import repro.sweep.model_runner as model_runner
        import repro.sweep.runner as runner
        import repro.sweep.system_runner as system_runner

        for family, attr in FAMILY_RUNNERS.items():
            stack.enter_context(tracer.patch(
                pipeline, attr, "sweep.family",
                before=_family_before(tracer, family), after=_family_after))
        stack.enter_context(tracer.patch(
            runner, "execute_point", "sim.perf.point",
            after=_perf_point_after))
        stack.enter_context(tracer.patch(
            runner, "run_workload", None, after=_mitigation_acts(tally)))
        stack.enter_context(tracer.patch(
            attack_runner, "execute_attack_point", "attacks.point"))
        stack.enter_context(tracer.patch(
            model_runner, "execute_model_point", "model.point",
            before=_model_before))
        stack.enter_context(tracer.patch(
            system_runner, "execute_system_point", "system.point",
            before=_system_point_before))
        stack.enter_context(tracer.patch(
            system_runner, "run_system", "system.run_system",
            after=tally.flush))
        _system_patches(stack, tracer, tally)
        stack.enter_context(_traced_extracts(figures.FIGURES, tracer))

    def _finish(self, clock: SegmentClock, cold, warm) -> PassResult:
        """Gate, cache-hygiene and count bookkeeping over the cold pass.

        Sources are walked in the order ``run_figures`` produced them.
        A cold-pass cache hit is legitimate only when an earlier source
        of the same family executed that config hash in this pass (the
        table5/sec65 sharing); any other hit replayed a stale entry.
        """
        sources = _sources_in_order(cold)
        problems = {p for result in cold for p in result.problems}
        warm_sources = _sources_in_order(warm)
        executed: Dict[str, Set[str]] = {}
        keys: List[str] = []
        failed: Set[str] = set()
        counts = {"engine.acts": 0, "engine.alerts": 0, "mc.requests": 0}
        view: Dict[str, Dict[str, Any]] = {}
        for ref, artifact in sources:
            seen = executed.setdefault(ref.family, set())
            points = artifact["points"]
            point_keys = [f"{ref.key}/{k}" for k in points]
            keys.extend(point_keys)
            findings = [p for p in problems if p.startswith(f"{ref.key}: ")]
            failed |= {f"{ref.key}/{k}"
                       for k in failed_keys(points, findings)}
            fresh = [p for p in points.values()
                     if p["config_hash"] not in seen]
            if artifact["cache_hits"] > len(points) - len(fresh):
                failed |= set(point_keys)
            for point in fresh:
                metrics = point["metrics"]
                counts["engine.acts"] += int(metrics.get("total_acts", 0))
                counts["engine.alerts"] += int(metrics.get("alerts", 0))
                if ref.family == "system":
                    counts["mc.requests"] += int(metrics.get("requests", 0))
            seen.update(p["config_hash"] for p in points.values())
            view[ref.key] = {k: p["metrics"] for k, p in points.items()}
        warm_view = {
            ref.key: {k: p["metrics"] for k, p in art["points"].items()}
            for ref, art in warm_sources
        }
        if canonical(warm_view) != canonical(view):
            failed |= set(keys)
        text = canonical(view)
        return PassResult(
            wall_s=clock.raw_s,
            scaled_s=clock.scaled_s,
            points=keys,
            failed=failed,
            digest=digest_of(text),
            sim_view=text,
            counts=counts,
        )


def _sources_in_order(results) -> List[Any]:
    out, seen = [], set()
    for result in results:
        for ref in result.spec.sources:
            if ref.key not in seen:
                seen.add(ref.key)
                out.append((ref, result.artifacts[ref.key]))
    return out


def _family_before(tracer: Tracer, family: str):
    def before(record, *args, **kwargs) -> None:
        record["family"] = family
        record["phase"] = tracer.ancestor_attr("phase")

    return before


def _family_after(record, result, *args, **kwargs) -> None:
    record["executed_s"] = sum(
        r.wall_clock_s for r in result.results if not r.cached)
    record["cache"] = dict(result.cache_stats)


def _perf_point_after(record, result, *args, **kwargs) -> None:
    record["total_acts"] = int(result.metrics["total_acts"])


def _mitigation_acts(tally: _ChannelTally):
    def after(record, result, *args, **kwargs) -> None:
        tally.total += result.mitigation_acts

    return after


def _model_before(record, point, *args, **kwargs) -> None:
    record["kind"] = point.model.kind


def _system_point_before(record, point, *args, **kwargs) -> None:
    record["scenario"] = point.scenario


@contextlib.contextmanager
def _traced_extracts(registry: Dict[str, Any], tracer: Tracer):
    """Swap every figure's extraction for a spanned copy, then restore."""
    originals = dict(registry)

    def spanned(name: str, extract):
        def run(artifacts):
            with tracer.span("report.extract", figure=name,
                             phase=tracer.ancestor_attr("phase")):
                return extract(artifacts)

        return run

    for name, spec in originals.items():
        registry[name] = dataclasses.replace(
            spec, extract=spanned(name, spec.extract))
    try:
        yield
    finally:
        registry.update(originals)


WORKLOADS = {cls.name: cls for cls in (McPolicy, SystemQos, PaperReport)}
