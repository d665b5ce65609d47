"""The paper figure/table registry: one declarative entry per artifact.

Every figure and table the reproduction covers is a :class:`FigureSpec`
that names

* the **sources** that produce its data — sweep, attack, or model
  presets (:data:`repro.sweep.spec.PRESETS`,
  :data:`repro.sweep.attack_spec.ATTACK_PRESETS`,
  :data:`repro.sweep.model_spec.MODEL_PRESETS`) — all executed through
  the shared ``run_cached_grid`` cache/pool core;
* the **extraction** that turns the sources' ``BENCH_*.json`` artifacts
  into paper-vs-measured rows; and
* the **paper values** it owns in :mod:`repro.report.paper_values`.

The ownership declaration is a partition: every public constant in
``paper_values`` belongs to exactly one figure and every figure owns at
least one constant (``tests/report/test_figures.py`` enforces both), so
a paper number can neither be silently dropped from the report nor
double-counted by two figures.

Extractions consume artifacts — never live simulators — so everything
the report renders is cacheable, diffable, and baseline-gated. They may
fold in closed-form arithmetic (a threshold ratio, an energy share),
but any quantity worth gating lives in a source preset. An extraction
also states what each row must show as a :class:`Claim`, which the
report prints and ``benchmarks/test_figures.py`` gates.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.energy import activation_energy_overhead
from repro.dram.timing import DDR5_PRAC_TIMING
from repro.report import paper_values as pv

#: Artifact families a figure source can come from, mapped by the
#: pipeline onto (preset table, runner, artifact builder, baseline
#: naming, schema, gated metrics).
FAMILIES = ("sweep", "attack", "model", "system")

Artifacts = Dict[str, Dict]


@dataclass(frozen=True)
class SourceRef:
    """One preset feeding a figure: ``family:preset``."""

    family: str
    preset: str

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown source family {self.family!r}; known: "
                f"{', '.join(FAMILIES)}"
            )

    @property
    def key(self) -> str:
        return f"{self.family}:{self.preset}"


@dataclass(frozen=True)
class Claim:
    """What a row asserts about its measured value: an interval.

    Either end may be absent (``None``), and each present end is closed
    (the bound itself holds) or open. Extractions compute the ends from
    paper values, constants or other rows, so the claim is data the
    report can print, not a predicate only a test can run.
    """

    low: Optional[float] = None
    high: Optional[float] = None
    low_open: bool = False
    high_open: bool = False

    def holds(self, value: Optional[float]) -> bool:
        """Whether ``value`` lies in the interval. A missing (``None``)
        or NaN value never does."""
        if value is None or math.isnan(value):
            return False
        low_ok = self.low is None or (
            value > self.low if self.low_open else value >= self.low
        )
        high_ok = self.high is None or (
            value < self.high if self.high_open else value <= self.high
        )
        return low_ok and high_ok

    def __and__(self, other: "Claim") -> "Claim":
        """Both claims at once: the intersection of the two intervals."""
        low, low_open = self.low, self.low_open
        if other.low is not None and (
            low is None
            or other.low > low
            or (other.low == low and other.low_open)
        ):
            low, low_open = other.low, other.low_open
        high, high_open = self.high, self.high_open
        if other.high is not None and (
            high is None
            or other.high < high
            or (other.high == high and other.high_open)
        ):
            high, high_open = other.high, other.high_open
        return Claim(low, high, low_open, high_open)

    def __str__(self) -> str:
        low, high = self.low, self.high
        if low is not None and high is not None:
            if low == high and not (self.low_open or self.high_open):
                return f"= {low:g}"
            return (
                f"{'(' if self.low_open else '['}{low:g}, "
                f"{high:g}{')' if self.high_open else ']'}"
            )
        if low is not None:
            return f"{'>' if self.low_open else '>='} {low:g}"
        if high is not None:
            return f"{'<' if self.high_open else '<='} {high:g}"
        return "any"


def at_least(bound: float) -> Claim:
    return Claim(low=bound)


def above(bound: float) -> Claim:
    return Claim(low=bound, low_open=True)


def at_most(bound: float) -> Claim:
    return Claim(high=bound)


def below(bound: float) -> Claim:
    return Claim(high=bound, high_open=True)


def within(center: float, tolerance: float, open: bool = False) -> Claim:
    """``center ± tolerance``, both ends closed unless ``open``."""
    return Claim(center - tolerance, center + tolerance, open, open)


def exactly(value: float) -> Claim:
    return within(value, 0.0)


@dataclass(frozen=True)
class FigureRow:
    """One paper-vs-measured comparison row of a rendered figure."""

    label: str
    paper: Optional[float] = None
    measured: Optional[float] = None
    note: str = ""
    #: The interval ``measured`` must lie in, if the row claims one.
    claim: Optional[Claim] = None

    @property
    def holds(self) -> Optional[bool]:
        """Whether the row's claim holds (``None``: it claims nothing)."""
        if self.claim is None:
            return None
        return self.claim.holds(self.measured)

    @property
    def rel_delta(self) -> Optional[float]:
        """Relative drift of measured vs paper (None when no paper or
        no measured value exists).

        A paper value of zero makes the usual ratio undefined, but any
        nonzero measurement against it is still full drift — hiding it
        would make a "~0 slowdown" regression invisible in the delta
        column and in ``max_abs_rel_delta``. Those rows report ±100%
        (the difference normalized by the measured magnitude).
        """
        if self.paper is None or self.measured is None:
            return None
        if self.paper == 0:
            if self.measured == 0:
                return 0.0
            return 1.0 if self.measured > 0 else -1.0
        return (self.measured - self.paper) / abs(self.paper)


Extractor = Callable[[Artifacts], List[FigureRow]]


@dataclass(frozen=True)
class FigureSpec:
    """Registry entry for one paper figure/table."""

    name: str
    title: str
    section: str
    sources: Tuple[SourceRef, ...]
    #: Names of the :mod:`repro.report.paper_values` constants this
    #: figure owns (the coverage test enforces the exact partition).
    paper_values: Tuple[str, ...]
    extract: Extractor = field(compare=False)

    def source_keys(self) -> Tuple[str, ...]:
        return tuple(ref.key for ref in self.sources)


# ---------------------------------------------------------------------------
# Artifact point selectors. Extractions select points on the artifact's
# structured fields (axes for sweep points, kind/params for attack and
# model points) — never by parsing key strings.


def _points(artifacts: Artifacts, key: str) -> List[Dict]:
    try:
        artifact = artifacts[key]
    except KeyError:
        raise KeyError(
            f"figure extraction needs source artifact {key!r}; have: "
            f"{', '.join(sorted(artifacts))}"
        ) from None
    return list(artifact["points"].values())


def _one(matches: Sequence[Dict], what: str) -> Dict:
    if len(matches) != 1:
        raise ValueError(
            f"expected exactly one artifact point for {what}, "
            f"found {len(matches)}"
        )
    return matches[0]


def _sweep_points(artifacts: Artifacts, preset: str, **axes) -> List[Dict]:
    """Sweep points whose axis fields match ``axes`` exactly."""
    return [
        p
        for p in _points(artifacts, f"sweep:{preset}")
        if all(p.get(name) == value for name, value in axes.items())
    ]


def _attack_point(
    artifacts: Artifacts, preset: str, kind: str, **params
) -> Dict:
    """The unique attack point of ``kind`` whose params cover ``params``."""
    matches = [
        p
        for p in _points(artifacts, f"attack:{preset}")
        if p.get("kind") == kind
        and all(p.get("params", {}).get(k) == v for k, v in params.items())
    ]
    return _one(matches, f"attack:{preset} {kind} {params}")


def _model_point(
    artifacts: Artifacts, preset: str, kind: str, exact: bool = False, **params
) -> Dict:
    """The unique model point of ``kind`` matching ``params``.

    ``exact=True`` requires the full parameter dict to equal ``params``
    (distinguishes e.g. a full-window bound from its 512-period
    variant, which differ only by an *extra* parameter).
    """
    def matched(p: Dict) -> bool:
        point_params = p.get("params", {})
        if exact:
            return point_params == params
        return all(point_params.get(k) == v for k, v in params.items())

    matches = [
        p
        for p in _points(artifacts, f"model:{preset}")
        if p.get("kind") == kind and matched(p)
    ]
    return _one(matches, f"model:{preset} {kind} {params}")


def _system_point(artifacts: Artifacts, preset: str, scenario: str) -> Dict:
    """The unique system point of the named scenario."""
    matches = [
        p
        for p in _points(artifacts, f"system:{preset}")
        if p.get("scenario") == scenario
    ]
    return _one(matches, f"system:{preset} {scenario}")


def _avg(points: Sequence[Dict], metric: str) -> float:
    if not points:
        raise ValueError(f"no artifact points to average {metric!r} over")
    return sum(p["metrics"][metric] for p in points) / len(points)


def _all_of(*claims: Optional[Claim]) -> Optional[Claim]:
    """The intersection of the claims given (``None`` when none is)."""
    present = [claim for claim in claims if claim is not None]
    return functools.reduce(operator.and_, present) if present else None


def _slowdown_bound(points: Sequence[Dict], cap: float) -> Claim:
    """Under 1% for a slowdown averaged over the workloads ``points``
    hold, with an allowance when they are a subset of Table 4.

    An average over n of the 21 workloads is at most 21/n times the
    full average, because the dropped workloads' slowdowns are not
    negative. A subset artifact (the hot-biased one of the reduced
    harness scale) gets that allowance, capped at ``cap``.
    """
    held = len({p["workload"] for p in points})
    return below(0.01 * min(cap, pv.TABLE4_WORKLOAD_COUNT / held))


def _safe_trh(arts: Artifacts) -> Dict[Tuple[int, int], float]:
    """The ``model:fig15`` grid: (ATH, level) -> safe T_RH."""
    return {
        (p["params"]["ath"], p["params"]["level"]): p["metrics"]["safe_trh"]
        for p in _points(arts, "model:fig15")
    }


# ---------------------------------------------------------------------------
# Extractions, one per registered figure. Each row's claim states what
# the reproduction must show; its bounds come from paper values,
# constants or other rows of the same figure.


def _extract_fig1(arts: Artifacts) -> List[FigureRow]:
    trespass = _attack_point(arts, "fig1", "trespass", num_aggressors=32)
    jailbreak = _attack_point(arts, "fig1", "jailbreak", threshold=128)
    ratchet = _attack_point(arts, "fig1", "ratchet", ath=64, pool_size=64)
    sram = {
        design: _model_point(
            arts, "fig1-sram", "design-sram", design=design
        )["metrics"]["sram_bytes"]
        for design in ("trr", "graphene", "panopticon", "moat")
    }
    target = float(pv.FIG1_TARGET_TRH)
    # The quadrant claims: only MOAT is both cheap and secure.
    return [
        FigureRow("TRR-16 SRAM (B/bank)", measured=sram["trr"]),
        FigureRow(
            "TRR-16 worst exposure",
            measured=trespass["metrics"]["max_danger"],
            note=f"unbounded (target T_RH {target:.0f}) — insecure",
            claim=above(target),
        ),
        FigureRow(
            "Graphene-sized SRAM (B/bank)",
            measured=sram["graphene"],
            note="secure by construction, impractical cost",
            claim=above(1_000 * sram["moat"]),
        ),
        FigureRow("Panopticon SRAM (B/bank)", measured=sram["panopticon"]),
        FigureRow(
            "Panopticon Jailbreak exposure",
            measured=jailbreak["metrics"]["acts_on_attack_row"],
            note=f"breaks target T_RH {target:.0f} — insecure",
            claim=above(target),
        ),
        FigureRow(
            "MOAT SRAM (B/bank)", measured=sram["moat"], claim=below(10)
        ),
        FigureRow(
            "MOAT Ratchet exposure",
            paper=target,
            measured=ratchet["metrics"]["acts_on_attack_row"],
            note="bounded at-or-below the target — secure",
            claim=at_most(target),
        ),
    ]


def _extract_fig5(arts: Artifacts) -> List[FigureRow]:
    det = _attack_point(arts, "fig5", "jailbreak", threshold=128)
    iteration = _attack_point(arts, "fig5", "jailbreak-randomized")
    curve = sorted(
        (p["params"]["iterations"], p["metrics"]["best_acts"])
        for p in _points(arts, "model:fig5-curve")
    )
    threshold = pv.JAILBREAK_QUEUE_THRESHOLD
    acts = det["metrics"]["acts_on_attack_row"]
    rows = [
        FigureRow(
            "deterministic ACTs on attack row",
            paper=float(pv.JAILBREAK_DETERMINISTIC_ACTS),
            measured=acts,
            claim=at_least(8.5 * threshold),
        ),
        FigureRow(
            "x queueing threshold",
            paper=pv.JAILBREAK_DETERMINISTIC_ACTS / threshold,
            measured=acts / threshold,
        ),
        FigureRow(
            "deterministic ALERTs",
            paper=0.0,
            measured=det["metrics"]["alerts"],
            claim=exactly(0.0),
        ),
        FigureRow(
            "randomized best ACTs (sampled curve)",
            paper=float(pv.JAILBREAK_RANDOMIZED_ACTS),
            measured=max(best for _, best in curve),
            note=f"success prob {pv.JAILBREAK_RANDOMIZED_SUCCESS_PROB:.1e}"
            "/iteration",
            claim=at_least(8 * threshold),
        ),
    ]
    # More iterations can only improve the best-so-far: the preset's
    # points share one RNG stream prefix.
    previous: Optional[float] = None
    for iterations, best in curve:
        rows.append(
            FigureRow(
                f"randomized best ACTs, 2^{iterations.bit_length() - 1} "
                "iterations",
                measured=best,
                claim=None if previous is None else at_least(previous),
            )
        )
        previous = best
    rows.append(
        FigureRow(
            "all-heavy iteration ACTs (simulated)",
            measured=iteration["metrics"]["acts_on_attack_row"],
            note="validates the sampled curve's physics",
            claim=at_least(6.5 * threshold),
        )
    )
    return rows


def _extract_fig8(arts: Artifacts) -> List[FigureRow]:
    rows = []
    points = _points(arts, "model:fig8")
    for point in sorted(points, key=lambda p: p["params"]["level"]):
        level = point["params"]["level"]
        metrics = point["metrics"]
        paper = pv.FIG8_MIN_ACTS[level]
        rows.append(
            FigureRow(
                f"min ACTs between ALERTs (level {level})",
                paper=float(paper),
                measured=metrics["min_acts_between_alerts"],
                claim=exactly(paper),
            )
        )
        # The minimum is the ACTs that fit in the 180 ns pre-RFM window
        # plus the ``level`` ACTs mandated after the RFMs.
        rows.append(
            FigureRow(
                f"pre-RFM ACTs (level {level})",
                measured=metrics["pre_rfm_acts"],
                claim=exactly(paper - level),
            )
        )
    return rows


def _extract_fig9(arts: Artifacts) -> List[FigureRow]:
    point = _attack_point(arts, "fig9", "ratchet", pool_size=4, abo_level=4)
    acts = point["metrics"]["acts_on_attack_row"]
    return [
        FigureRow(
            "ACTs beyond ATH on last row",
            paper=float(pv.FIG9_EXTRA_ACTS),
            measured=acts - 64,
            note="idealized bookkeeping vs exact DDR5 timing",
            # At least the final level-4 inter-ALERT burst, and in the
            # regime of the figure's +15.
            claim=Claim(pv.FIG8_MIN_ACTS[4], 2 * pv.FIG9_EXTRA_ACTS),
        ),
        FigureRow(
            "total ACTs on last row",
            paper=64.0 + pv.FIG9_EXTRA_ACTS,
            measured=acts,
        ),
        FigureRow(
            "ALERTs in chain",
            paper=4.0,
            measured=point["metrics"]["alerts"],
            claim=exactly(4),
        ),
    ]


def _extract_fig10(arts: Artifacts) -> List[FigureRow]:
    trh = _safe_trh(arts)
    rows = []
    for ath in (32, 64, 128):
        point = _attack_point(
            arts, "fig10", "ratchet", ath=ath, pool_size=64
        )
        # A concrete execution beats ATH but stays within the model.
        rows.append(
            FigureRow(
                f"Ratchet exposure @ ATH={ath} (pool 64)",
                measured=point["metrics"]["acts_on_attack_row"],
                note=f"model bound {trh[ath, 1]:.0f}",
                claim=Claim(ath + 4, trh[ath, 1] + 1),
            )
        )
    # The level-1 model curve rises with ATH through the paper's points.
    previous: Optional[float] = None
    for ath in sorted(ath for ath, level in trh if level == 1):
        paper = pv.FIG10_SAFE_TRH.get(ath)
        rows.append(
            FigureRow(
                f"safe T_RH @ ATH={ath} (model)",
                paper=None if paper is None else float(paper),
                measured=trh[ath, 1],
                claim=_all_of(
                    None if previous is None else at_least(previous),
                    None if paper is None else exactly(paper),
                ),
            )
        )
        previous = trh[ath, 1]
    l4 = _attack_point(arts, "fig10", "ratchet", ath=64, abo_level=4)
    rows.append(
        FigureRow(
            "exposure @ ATH=64, generalized L4 tracker (pool 8)",
            measured=l4["metrics"]["acts_on_attack_row"],
            note=f"model bound {trh[64, 4]:.0f}",
        )
    )
    return rows


def _extract_fig11(arts: Artifacts) -> List[FigureRow]:
    at64 = _sweep_points(arts, "fig11", ath=64)
    at128 = _sweep_points(arts, "fig11", ath=128)
    slowdown64 = _avg(at64, "slowdown")
    rate64 = _avg(at64, "alerts_per_trefi")
    # ALERT activity concentrates in the hot workloads.
    rate_of = {p["workload"]: p["metrics"]["alerts_per_trefi"] for p in at64}
    hot, quiet = (
        sum(rate_of[w] for w in names if w in rate_of)
        for names in (("roms", "parest", "xz", "lbm"), ("tc", "x264", "wrf"))
    )
    rows = [
        FigureRow(
            "average slowdown @ ATH=64",
            paper=pv.AVG_SLOWDOWN[64],
            measured=slowdown64,
            claim=_slowdown_bound(at64, cap=2),
        ),
        FigureRow(
            "average slowdown @ ATH=128",
            paper=pv.AVG_SLOWDOWN[128],
            measured=_avg(at128, "slowdown"),
            claim=at_most(slowdown64) & below(0.001),
        ),
        FigureRow(
            "average ALERTs/tREFI @ ATH=64",
            paper=pv.AVG_ALERTS_PER_TREFI_ATH64,
            measured=rate64,
        ),
        FigureRow(
            "average ALERTs/tREFI @ ATH=128",
            measured=_avg(at128, "alerts_per_trefi"),
            claim=at_most(rate64),
        ),
        FigureRow(
            "ALERTs/tREFI summed over hot workloads @ ATH=64",
            measured=hot,
            note="roms, parest, xz, lbm (those present)",
            claim=at_least(quiet),
        ),
        FigureRow(
            "ALERTs/tREFI summed over quiet workloads @ ATH=64",
            measured=quiet,
            note="tc, x264, wrf (those present)",
        ),
    ]
    roms = _sweep_points(arts, "fig11", ath=64, workload="roms")
    if roms:
        rows.append(
            FigureRow(
                "roms slowdown @ ATH=64 (worst workload)",
                paper=pv.ROMS_SLOWDOWN_ATH64,
                measured=roms[0]["metrics"]["slowdown"],
            )
        )
    return rows


def _extract_fig12(arts: Artifacts) -> List[FigureRow]:
    rows = []
    previous: Optional[float] = None
    for banks in (1, 4, 8, 17):
        point = _attack_point(arts, "fig12", "tsa", num_banks=banks)
        loss = point["metrics"]["detail:throughput_loss"]
        paper = pv.TSA_LOSS.get(banks)
        rows.append(
            FigureRow(
                f"throughput loss @ {banks} banks",
                paper=float(paper) if paper is not None else None,
                measured=loss,
                note=f"{point['metrics']['alerts']:.0f} ALERTs",
                # The loss grows with the staggered banks, lands near
                # the paper's 24% at 4 banks, and stays under the
                # continuous-ALERT ceiling of Section 7.1.
                claim=_all_of(
                    None if previous is None else at_least(previous),
                    within(paper, 0.10, open=True) if banks == 4 else None,
                    below(1 - pv.ALERT_WINDOW_THROUGHPUT_L1)
                    if banks == 17 else None,
                ),
            )
        )
        previous = loss
    return rows


def _extract_fig13(arts: Artifacts) -> List[FigureRow]:
    single = _attack_point(arts, "fig13", "kernel-single", ath=64)
    multi = _attack_point(arts, "fig13", "kernel-multi", ath=64)
    model = _model_point(arts, "sec71", "kernel-model", ath=64)
    loss = float(pv.KERNEL_THROUGHPUT_LOSS)
    single_loss = single["metrics"]["detail:throughput_loss"]
    # "~10%" at the paper's trace lengths.
    kernel_band = Claim(0.03, 0.15)
    return [
        FigureRow(
            "(A)^N single-row loss @ ATH=64",
            paper=loss,
            measured=single_loss,
            claim=kernel_band,
        ),
        FigureRow(
            "(ABCDE)^N multi-row loss @ ATH=64",
            paper=loss,
            measured=multi["metrics"]["detail:throughput_loss"],
            claim=kernel_band,
        ),
        FigureRow(
            "analytic stall-only loss @ ATH=64",
            paper=loss,
            measured=model["metrics"]["throughput_loss"],
        ),
        FigureRow(
            "single-row loss @ ATH=32",
            measured=_attack_point(arts, "fig13", "kernel-single", ath=32)[
                "metrics"
            ]["detail:throughput_loss"],
            note="loss grows as ATH shrinks",
            claim=above(single_loss),
        ),
        FigureRow(
            "single-row loss @ ATH=128",
            measured=_attack_point(arts, "fig13", "kernel-single", ath=128)[
                "metrics"
            ]["detail:throughput_loss"],
            claim=below(single_loss),
        ),
    ]


def _extract_fig15(arts: Artifacts) -> List[FigureRow]:
    trh = _safe_trh(arts)
    rows = []
    for ath, level in sorted(trh):
        paper = pv.TABLE7_SAFE_TRH.get((ath, level))
        # Every published cell within one ACT (the headline ATH=64, L1
        # cell exactly), and level 1 tolerates the highest threshold.
        tolerance = 0 if (ath, level) == (64, 1) else 1
        rows.append(
            FigureRow(
                f"safe T_RH @ ATH={ath}, level {level}",
                paper=None if paper is None else float(paper),
                measured=trh[ath, level],
                claim=_all_of(
                    None if paper is None else within(paper, tolerance),
                    None if level == 1 else at_most(trh[ath, level // 2]),
                ),
            )
        )
    return rows


def _extract_fig16(arts: Artifacts) -> List[FigureRow]:
    at128 = _attack_point(arts, "fig16", "postponement", threshold=128)
    acts = at128["metrics"]["acts_on_attack_row"]
    between = pv.POSTPONEMENT_ACTS_BETWEEN_BATCHES
    rows = [
        FigureRow(
            "ACTs on attack row (threshold 128)",
            paper=float(pv.POSTPONEMENT_ACTS),
            measured=acts,
            claim=within(pv.POSTPONEMENT_ACTS, 5) & within(128 + between, 5),
        ),
        FigureRow(
            "ACT window between batches",
            paper=float(between),
            measured=acts - 128,
        ),
        FigureRow(
            "burst rate (ACTs/tREFI)",
            paper=float(pv.POSTPONEMENT_ACTS_PER_TREFI),
            measured=float(DDR5_PRAC_TIMING.acts_per_trefi),
            note="the postponed window fills at line rate",
        ),
    ]
    for threshold in (64, 256):
        point = _attack_point(
            arts, "fig16", "postponement", threshold=threshold
        )
        rows.append(
            FigureRow(
                f"ACTs on attack row (threshold {threshold})",
                paper=float(threshold + between),
                measured=point["metrics"]["acts_on_attack_row"],
                note="expected threshold + 201",
                claim=within(threshold + between, 5),
            )
        )
    return rows


def _extract_fig17(arts: Artifacts) -> List[FigureRow]:
    by_level = {
        level: _sweep_points(arts, "fig17", abo_level=level)
        for level in (1, 2, 4)
    }
    # Higher levels amplify the hot workloads' ALERT stalls, so a hot
    # subset is allowed more than in Figure 11 (level 1 only).
    rows = [
        FigureRow(
            f"average slowdown MOAT-L{level}",
            paper=pv.FIG17_SLOWDOWN[level],
            measured=_avg(by_level[level], "slowdown"),
            claim=_slowdown_bound(by_level[level], cap=4),
        )
        for level in (1, 2, 4)
    ]
    rate_l1 = _avg(by_level[1], "alerts_per_trefi")
    for level in (2, 4):
        measured = (
            _avg(by_level[level], "alerts_per_trefi") / rate_l1
            if rate_l1
            else None
        )
        rows.append(
            FigureRow(
                f"ALERT-rate ratio L{level}/L1",
                paper=pv.ALERT_RATE_VS_L1[level],
                measured=measured,
                note="higher levels service more rows per ALERT",
                # ALERT episodes do not grow with level; the slack
                # absorbs fixed-point noise.
                claim=at_most(1.15) if level == 4 else None,
            )
        )
    return rows


def _extract_table1(arts: Artifacts) -> List[FigureRow]:
    metrics = _model_point(arts, "table1", "timing")["metrics"]
    # Every timing identity within 1% (tREFW is 8192 x 3900 ns = 31.95
    # ms against the paper's rounded 32 ms), the ACT budget exactly.
    return [
        FigureRow(
            name,
            paper=float(paper),
            measured=metrics[name],
            claim=exactly(paper)
            if name == "acts_per_trefi"
            else within(paper, 0.01 * paper, open=True),
        )
        for name, paper in pv.TABLE1_TIMINGS.items()
    ]


def _extract_table2(arts: Artifacts) -> List[FigureRow]:
    rows = []
    for rate, paper in pv.TABLE2_FEINTING.items():
        bound = _model_point(
            arts, "table2-bound", "feinting-bound", exact=True,
            trefi_per_mitigation=rate,
        )["metrics"]["bound"]
        rows.append(
            FigureRow(
                f"T_RH bound, 1 per {rate} tREFI (full window)",
                paper=float(paper),
                measured=bound,
                claim=within(paper, 0.01 * paper),
            )
        )
    for rate in pv.TABLE2_FEINTING:
        prefix_bound = _model_point(
            arts, "table2-bound", "feinting-bound",
            trefi_per_mitigation=rate, periods=512,
        )["metrics"]["bound"]
        simulated = _attack_point(
            arts, "table2", "feinting", trefi_per_mitigation=rate
        )["metrics"]["acts_on_attack_row"]
        rows.append(
            FigureRow(
                f"simulated, 1 per {rate} tREFI (512 periods)",
                measured=simulated,
                note=f"512-period bound {prefix_bound:.0f}",
                # The discrete attack tracks the harmonic bound from
                # below, within one mitigation period's ACTs.
                claim=Claim(
                    0.8 * prefix_bound,
                    prefix_bound + DDR5_PRAC_TIMING.acts_per_trefi * rate,
                ),
            )
        )
    return rows


def _extract_table3(arts: Artifacts) -> List[FigureRow]:
    metrics = _model_point(arts, "table3", "system-config")["metrics"]
    return [
        FigureRow(
            name,
            paper=float(paper),
            measured=metrics[name],
            claim=exactly(paper),
        )
        for name, paper in pv.TABLE3_SYSTEM.items()
    ]


def _extract_table4(arts: Artifacts) -> List[FigureRow]:
    points = _points(arts, "model:table4")
    rows = [
        FigureRow(
            "workloads measured",
            paper=float(pv.TABLE4_WORKLOAD_COUNT),
            measured=float(len(points)),
            claim=at_least(1),
        )
    ]
    # The generator is calibrated to every published hot-row column:
    # within 8% or 4 rows, whichever is wider.
    for point in points:
        workload = point["params"]["workload"]
        metrics = point["metrics"]
        for threshold in (32, 64, 128):
            paper = metrics[f"paper_act_{threshold}_plus"]
            rows.append(
                FigureRow(
                    f"{workload} rows with {threshold}+ ACTs/tREFW",
                    paper=paper,
                    measured=metrics[f"act_{threshold}_plus"],
                    claim=within(paper, max(0.08 * abs(paper), 4)),
                )
            )
    return rows


def _extract_table5(arts: Artifacts) -> List[FigureRow]:
    points = {
        eth: _sweep_points(arts, "table5", eth=eth) for eth in pv.TABLE5_ETH
    }
    mitigations = {
        eth: _avg(at, "mitigations_per_trefw_per_bank")
        for eth, at in points.items()
    }
    rows = []
    previous: Optional[float] = None
    for eth, (paper_mitigations, slowdown) in sorted(pv.TABLE5_ETH.items()):
        # Mitigation volume falls as ETH rises; ETH=0 does the most
        # proactive work.
        rows.append(
            FigureRow(
                f"mitigations+ALERTs/tREFW/bank @ ETH={eth}",
                paper=float(paper_mitigations),
                measured=mitigations[eth],
                claim=_all_of(
                    None if previous is None else at_most(previous),
                    below(mitigations[0]) if eth == 48 else None,
                ),
            )
        )
        previous = mitigations[eth]
        rows.append(
            FigureRow(
                f"average slowdown @ ETH={eth}",
                paper=float(slowdown),
                measured=_avg(points[eth], "slowdown"),
            )
        )
    return rows


def _extract_table6(arts: Artifacts) -> List[FigureRow]:
    slowdown = {
        rate: _avg(
            _sweep_points(arts, "table6", trefi_per_mitigation=rate),
            "slowdown",
        )
        for rate in pv.TABLE6_MITIGATION_RATE
    }
    # Slowdown grows as the proactive rate drops. The fixed point is
    # discrete, so adjacent rates get 0.2% of slack on the tail.
    tail = max(slowdown[10], slowdown[0])
    claims = {
        1: at_most(tail),
        5: Claim(slowdown[1], tail + 0.002),
        0: at_least(0.5 * slowdown[10] - 0.002),
    }
    rows = []
    for rate, paper in pv.TABLE6_MITIGATION_RATE.items():
        label = (
            "none (ALERT only)" if rate == 0 else f"1 per {rate} tREFI"
        )
        rows.append(
            FigureRow(
                f"average slowdown, {label}",
                paper=float(paper),
                measured=slowdown[rate],
                claim=claims.get(rate),
            )
        )
    return rows


def _extract_table7(arts: Artifacts) -> List[FigureRow]:
    slowdown = {
        cell: _avg(
            _sweep_points(arts, "table7", ath=cell[0], abo_level=cell[1]),
            "slowdown",
        )
        for cell in pv.TABLE7_SLOWDOWN
    }
    # A lower ATH costs more performance at every level.
    return [
        FigureRow(
            f"average slowdown @ ATH={ath}, MOAT-L{level}",
            paper=float(paper),
            measured=slowdown[ath, level],
            claim=None if ath == 32 else at_most(slowdown[ath // 2, level]),
        )
        for (ath, level), paper in sorted(pv.TABLE7_SLOWDOWN.items())
    ]


def _extract_motivation(arts: Artifacts) -> List[FigureRow]:
    entries = pv.MOTIVATION_TRACKER_ENTRIES
    blinded = _attack_point(arts, "motivation", "trespass", num_aggressors=32)
    caught = _attack_point(arts, "motivation", "trespass", num_aggressors=4)
    blinded_danger = blinded["metrics"]["max_danger"]
    return [
        FigureRow(
            f"exposure: 32 aggressors vs {entries} entries",
            measured=blinded_danger,
            note="tracker blinded — unbounded exposure",
            # The tracker never mitigates.
            claim=at_least(590),
        ),
        FigureRow(
            f"exposure: 4 aggressors vs {entries} entries",
            measured=caught["metrics"]["max_danger"],
            note="tracker keeps up — bounded exposure",
            claim=below(blinded_danger),
        ),
    ]


def _extract_sec65(arts: Artifacts) -> List[FigureRow]:
    rows = []
    for level in (1, 2, 4):
        metrics = _model_point(
            arts, "sec65-storage", "moat-sram", level=level
        )["metrics"]
        for unit, paper in (
            ("bank", pv.MOAT_SRAM_BYTES_PER_BANK[level]),
            ("chip", pv.MOAT_SRAM_BYTES_PER_CHIP[level]),
        ):
            rows.append(
                FigureRow(
                    f"MOAT-L{level} SRAM (B/{unit})",
                    paper=float(paper),
                    measured=metrics[f"bytes_per_{unit}"],
                    claim=exactly(paper),
                )
            )
    overhead = _avg(_sweep_points(arts, "sec65"), "activation_overhead")
    energy = activation_energy_overhead(1_000_000, int(1_000_000 * overhead))
    # Mitigation ACTs stay a small share of the demand traffic, and so
    # does the energy they cost.
    rows.append(
        FigureRow(
            "activation overhead @ ATH=64",
            paper=float(pv.MOAT_ACTIVATION_OVERHEAD_ATH64),
            measured=overhead,
            claim=below(0.10),
        )
    )
    rows.append(
        FigureRow(
            "total DRAM energy overhead",
            paper=float(pv.MOAT_ENERGY_OVERHEAD_BOUND),
            measured=energy.total_energy_overhead,
            note="paper value is an upper bound",
            claim=below(0.02),
        )
    )
    return rows


def _extract_sec71(arts: Artifacts) -> List[FigureRow]:
    values = [
        (
            "ALERT-window throughput (level 1)",
            pv.ALERT_WINDOW_THROUGHPUT_L1,
            _model_point(arts, "sec71", "throughput-model", level=1)[
                "metrics"
            ]["alert_window_throughput"],
        )
    ]
    for level in (1, 2, 4):
        values.append(
            (
                f"continuous-ALERT slowdown (level {level})",
                pv.CONTINUOUS_ALERT_SLOWDOWN[level],
                _model_point(arts, "sec71", "throughput-model", level=level)[
                    "metrics"
                ]["continuous_alert_slowdown"],
            )
        )
    return [
        FigureRow(
            label,
            paper=float(paper),
            measured=measured,
            claim=within(paper, 0.02 * paper),
        )
        for label, paper, measured in values
    ]


def _extract_qos(arts: Artifacts) -> List[FigureRow]:
    """Fairness/isolation contrast of the QoS scheduling policies.

    The headline quantity is attacker-induced *victim p99
    degradation*: the worst victim's read p99 under the noisy scenario
    divided by the same quantity in the quiet run. The paper publishes
    no such figure, so no row has a paper value: the unprotected
    FR-FCFS degradation claims at least the paper-derived floor, and
    each QoS policy's claims to land below it.
    """

    def worst_victim_p99(scenario: str) -> float:
        metrics = _system_point(arts, "system-qos", scenario)["metrics"]
        return max(
            metrics["victim0:read_p99_ns"], metrics["victim1:read_p99_ns"]
        )

    quiet = worst_victim_p99("quiet")
    unprotected = worst_victim_p99("noisy-frfcfs") / quiet
    rows = [
        FigureRow(
            "victim p99 degradation, frfcfs (unprotected)",
            measured=unprotected,
            claim=at_least(pv.QOS_UNPROTECTED_DEGRADATION_MIN),
        )
    ]
    for scenario, label in (
        ("noisy-priority", "priority (victims at priority 1)"),
        ("noisy-bwcap", "bw-cap (attacker capped at 0.1 GB/s)"),
        ("noisy-slo", "slo (10us p99 budget gate)"),
    ):
        rows.append(
            FigureRow(
                f"victim p99 degradation, {label}",
                measured=worst_victim_p99(scenario) / quiet,
                claim=below(unprotected),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# The registry.


def _refs(*pairs: str) -> Tuple[SourceRef, ...]:
    return tuple(
        SourceRef(*pair.split(":", 1)) for pair in pairs
    )


FIGURES: Dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec(
            name="fig1",
            title="Figure 1(a) — In-DRAM tracker design space",
            section="Section 1",
            sources=_refs("attack:fig1", "model:fig1-sram"),
            paper_values=("FIG1_TARGET_TRH",),
            extract=_extract_fig1,
        ),
        FigureSpec(
            name="motivation",
            title="Section 2.4 — Low-cost tracker motivation",
            section="Section 2.4",
            sources=_refs("attack:motivation"),
            paper_values=("MOTIVATION_TRACKER_ENTRIES",),
            extract=_extract_motivation,
        ),
        FigureSpec(
            name="table1",
            title="Table 1 — DRAM timing parameters",
            section="Section 2.2",
            sources=_refs("model:table1"),
            paper_values=("TABLE1_TIMINGS",),
            extract=_extract_table1,
        ),
        FigureSpec(
            name="table2",
            title="Table 2 — Feinting T_RH bound for per-row counters",
            section="Section 2.5",
            sources=_refs("attack:table2", "model:table2-bound"),
            paper_values=("TABLE2_FEINTING",),
            extract=_extract_table2,
        ),
        FigureSpec(
            name="fig5",
            title="Figure 5 — Jailbreak vs Panopticon",
            section="Section 3",
            sources=_refs("attack:fig5", "model:fig5-curve"),
            paper_values=(
                "JAILBREAK_DETERMINISTIC_ACTS",
                "JAILBREAK_RANDOMIZED_ACTS",
                "JAILBREAK_QUEUE_THRESHOLD",
                "JAILBREAK_RANDOMIZED_SUCCESS_PROB",
            ),
            extract=_extract_fig5,
        ),
        FigureSpec(
            name="fig8",
            title="Figure 8 — Minimum ACTs between consecutive ALERTs",
            section="Section 4",
            sources=_refs("model:fig8"),
            paper_values=("FIG8_MIN_ACTS",),
            extract=_extract_fig8,
        ),
        FigureSpec(
            name="fig9",
            title="Figure 9 — Ratchet on a 4-row pool at ABO level 4",
            section="Section 5",
            sources=_refs("attack:fig9"),
            paper_values=("FIG9_EXTRA_ACTS",),
            extract=_extract_fig9,
        ),
        FigureSpec(
            name="fig10",
            title="Figure 10 — Ratchet exposure and the safe-T_RH bound",
            section="Section 5.3",
            sources=_refs("attack:fig10", "model:fig15"),
            paper_values=("FIG10_SAFE_TRH",),
            extract=_extract_fig10,
        ),
        FigureSpec(
            name="fig11",
            title="Figure 11 — MOAT performance and ALERT rate",
            section="Section 6.2/6.3",
            sources=_refs("sweep:fig11"),
            paper_values=(
                "AVG_SLOWDOWN",
                "ROMS_SLOWDOWN_ATH64",
                "AVG_ALERTS_PER_TREFI_ATH64",
            ),
            extract=_extract_fig11,
        ),
        FigureSpec(
            name="fig12",
            title="Figure 12 — TSA throughput loss vs bank count",
            section="Section 7.3",
            sources=_refs("attack:fig12"),
            paper_values=("TSA_LOSS",),
            extract=_extract_fig12,
        ),
        FigureSpec(
            name="fig13",
            title="Figure 13 — Performance-attack kernels",
            section="Section 7.2",
            sources=_refs("attack:fig13", "model:sec71"),
            paper_values=("KERNEL_THROUGHPUT_LOSS",),
            extract=_extract_fig13,
        ),
        FigureSpec(
            name="fig15",
            title="Figure 15 — Safe T_RH under Ratchet per ABO level",
            section="Section 8 / Appendix A",
            sources=_refs("model:fig15"),
            paper_values=("TABLE7_SAFE_TRH",),
            extract=_extract_fig15,
        ),
        FigureSpec(
            name="fig16",
            title="Figure 16 — Refresh postponement vs drain-all "
            "Panopticon",
            section="Appendix B",
            sources=_refs("attack:fig16"),
            paper_values=(
                "POSTPONEMENT_ACTS",
                "POSTPONEMENT_ACTS_PER_TREFI",
                "POSTPONEMENT_ACTS_BETWEEN_BATCHES",
            ),
            extract=_extract_fig16,
        ),
        FigureSpec(
            name="fig17",
            title="Figure 17 — MOAT at ABO levels 1/2/4",
            section="Appendix D",
            sources=_refs("sweep:fig17"),
            paper_values=("FIG17_SLOWDOWN", "ALERT_RATE_VS_L1"),
            extract=_extract_fig17,
        ),
        FigureSpec(
            name="table3",
            title="Table 3 — Baseline system configuration",
            section="Section 6.1",
            sources=_refs("model:table3"),
            paper_values=("TABLE3_SYSTEM",),
            extract=_extract_table3,
        ),
        FigureSpec(
            name="table4",
            title="Table 4 — Workload characteristics",
            section="Section 6.1",
            sources=_refs("model:table4"),
            paper_values=("TABLE4_WORKLOAD_COUNT",),
            extract=_extract_table4,
        ),
        FigureSpec(
            name="table5",
            title="Table 5 — Impact of ETH at ATH=64",
            section="Section 6.4",
            sources=_refs("sweep:table5"),
            paper_values=("TABLE5_ETH",),
            extract=_extract_table5,
        ),
        FigureSpec(
            name="table6",
            title="Table 6 — Impact of the proactive mitigation rate",
            section="Appendix C",
            sources=_refs("sweep:table6"),
            paper_values=("TABLE6_MITIGATION_RATE",),
            extract=_extract_table6,
        ),
        FigureSpec(
            name="table7",
            title="Table 7 — ATH x ABO-level slowdown grid",
            section="Section 8",
            sources=_refs("sweep:table7"),
            paper_values=("TABLE7_SLOWDOWN",),
            extract=_extract_table7,
        ),
        FigureSpec(
            name="sec65",
            title="Section 6.5 — Storage and energy overheads",
            section="Section 6.5 / Appendix D",
            sources=_refs("model:sec65-storage", "sweep:sec65"),
            paper_values=(
                "MOAT_SRAM_BYTES_PER_BANK",
                "MOAT_SRAM_BYTES_PER_CHIP",
                "MOAT_ACTIVATION_OVERHEAD_ATH64",
                "MOAT_ENERGY_OVERHEAD_BOUND",
            ),
            extract=_extract_sec65,
        ),
        FigureSpec(
            name="qos",
            title="QoS — victim p99 isolation under ALERT storms",
            section="Section 7 (extension)",
            sources=_refs("system:system-qos"),
            paper_values=("QOS_UNPROTECTED_DEGRADATION_MIN",),
            extract=_extract_qos,
        ),
        FigureSpec(
            name="sec71",
            title="Section 7.1 — Throughput under continuous ALERTs",
            section="Section 7.1 / Appendix D",
            sources=_refs("model:sec71"),
            paper_values=(
                "ALERT_WINDOW_THROUGHPUT_L1",
                "CONTINUOUS_ALERT_SLOWDOWN",
            ),
            extract=_extract_sec71,
        ),
    )
}


def figure(name: str) -> FigureSpec:
    """Look up a registered figure by name with a helpful error."""
    try:
        return FIGURES[name]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise KeyError(f"unknown figure {name!r}; known: {known}") from None
