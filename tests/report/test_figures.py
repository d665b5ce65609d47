"""Tests for the figure registry, its paper-value ownership partition,
and the report pipeline."""

import json

import pytest

from repro.report import paper_values
from repro.report.figures import (
    FIGURES,
    Claim,
    FigureRow,
    SourceRef,
    above,
    at_least,
    at_most,
    below,
    exactly,
    figure,
    within,
)
from repro.report.pipeline import (
    FigureResult,
    ReportOptions,
    check_results,
    make_report_artifact,
    render_figure_text,
    render_markdown,
    run_figure,
    run_figures,
    write_baselines,
)
from repro.sweep.attack_spec import ATTACK_PRESETS
from repro.sweep.model_spec import MODEL_PRESETS
from repro.sweep.spec import PRESETS
from repro.sweep.system_spec import SYSTEM_PRESETS

#: Model-only figures cheap enough to execute end-to-end in a unit test.
CHEAP_FIGURES = ("fig8", "table1", "table3", "sec71", "fig15")

_PRESET_TABLES = {"sweep": PRESETS, "attack": ATTACK_PRESETS,
                  "model": MODEL_PRESETS, "system": SYSTEM_PRESETS}


def public_paper_values():
    return {name for name in vars(paper_values) if name.isupper()}


class TestRegistry:
    def test_lookup_error_names_known_figures(self):
        with pytest.raises(KeyError, match="fig11"):
            figure("fig99")

    def test_every_source_resolves_to_a_registered_preset(self):
        for spec in FIGURES.values():
            assert spec.sources, spec.name
            for ref in spec.sources:
                table = _PRESET_TABLES[ref.family]
                assert ref.preset in table, (spec.name, ref.key)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown source family"):
            SourceRef("benchmark", "fig11")

    def test_every_numbered_paper_artifact_is_registered(self):
        assert set(FIGURES) == {
            "fig1", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig15", "fig16", "fig17", "table1", "table2",
            "table3", "table4", "table5", "table6", "table7",
            "motivation", "qos", "sec65", "sec71",
        }


class TestPaperValueCoverage:
    """The satellite guarantee: the paper-value partition is exact."""

    def test_every_figure_owns_at_least_one_paper_value(self):
        for spec in FIGURES.values():
            assert spec.paper_values, (
                f"{spec.name} declares no paper values; a figure without "
                "ground truth cannot report drift"
            )

    def test_every_declared_paper_value_exists(self):
        known = public_paper_values()
        for spec in FIGURES.values():
            for name in spec.paper_values:
                assert name in known, (spec.name, name)

    def test_no_paper_value_owned_twice(self):
        owners = {}
        for spec in FIGURES.values():
            for name in spec.paper_values:
                assert name not in owners, (
                    f"{name} owned by both {owners[name]} and {spec.name}"
                )
                owners[name] = spec.name

    def test_no_orphaned_paper_values(self):
        declared = {
            name
            for spec in FIGURES.values()
            for name in spec.paper_values
        }
        orphans = public_paper_values() - declared
        assert not orphans, (
            f"paper values not consumed by any registered figure: "
            f"{sorted(orphans)} — add them to a FigureSpec or delete them"
        )


class TestFigureRow:
    def test_rel_delta(self):
        assert FigureRow("x", paper=2.0, measured=2.2).rel_delta == pytest.approx(0.1)
        assert FigureRow("x", paper=-2.0, measured=-1.0).rel_delta == pytest.approx(0.5)

    def test_rel_delta_undefined_without_both_values(self):
        assert FigureRow("x", paper=None, measured=1.0).rel_delta is None
        assert FigureRow("x", paper=1.0, measured=None).rel_delta is None

    def test_rel_delta_at_zero_paper(self):
        assert FigureRow("x", paper=0.0, measured=0.0).rel_delta == 0.0
        # Divergence from an exact-zero paper value must not vanish
        # from the delta column: it reports as full (±100%) drift.
        assert FigureRow("x", paper=0.0, measured=0.1).rel_delta == 1.0
        assert FigureRow("x", paper=0.0, measured=-0.1).rel_delta == -1.0


class TestClaim:
    def test_closed_end_holds_at_equality(self):
        assert Claim(1.0, 2.0).holds(1.0)
        assert Claim(1.0, 2.0).holds(2.0)
        assert exactly(3.0).holds(3.0)
        assert not exactly(3.0).holds(3.0000001)

    def test_open_end_fails_at_equality(self):
        claim = Claim(1.0, 2.0, low_open=True, high_open=True)
        assert not claim.holds(1.0)
        assert not claim.holds(2.0)
        assert claim.holds(1.5)

    def test_one_sided_bounds(self):
        assert at_least(5).holds(5) and at_least(5).holds(1e9)
        assert not at_least(5).holds(4.999)
        assert above(5).holds(5.001) and not above(5).holds(5)
        assert at_most(5).holds(5) and at_most(5).holds(-1e9)
        assert not at_most(5).holds(5.001)
        assert below(5).holds(4.999) and not below(5).holds(5)

    def test_missing_or_nan_measured_never_holds(self):
        for claim in (Claim(), at_least(0), below(1), within(0, 1)):
            assert not claim.holds(None)
            assert not claim.holds(float("nan"))

    def test_intersection_keeps_the_tighter_end(self):
        assert at_most(2.0) & below(1.0) == below(1.0)
        assert at_most(1.0) & below(1.0) == below(1.0)
        assert at_least(1.0) & at_most(2.0) == Claim(1.0, 2.0)
        assert within(10, 1) & at_least(10.5) == Claim(10.5, 11)

    def test_text(self):
        assert str(Claim(1, 2, low_open=True)) == "(1, 2]"
        assert str(exactly(99)) == "= 99"
        assert str(above(99)) == "> 99"
        assert str(at_most(0.001)) == "<= 0.001"

    def test_row_without_claim_has_no_verdict(self):
        assert FigureRow("x", paper=1.0, measured=1.0).holds is None
        assert FigureRow("x", measured=1.0, claim=below(1)).holds is False
        assert FigureRow("x", measured=0.5, claim=below(1)).holds is True

    def test_claim_and_verdict_reach_every_rendering(self):
        result = FigureResult(
            spec=figure("fig8"),
            artifacts={"model:fig8": {}},
            rows=[
                FigureRow("holding row", measured=0.5, claim=below(1)),
                FigureRow("failing row", measured=7.0, claim=Claim(2, 3)),
                FigureRow("plain row", measured=1.0),
            ],
        )
        assert [row.label for row in result.failed_claims] == [
            "failing row"
        ]
        text = render_figure_text(result)
        lines = {
            line.split("  ")[0].strip(): line for line in text.splitlines()
        }
        assert "claim" in text and "verdict" in text
        assert "< 1" in lines["holding row"] and "ok" in lines["holding row"]
        assert "[2, 3]" in lines["failing row"]
        assert "FAIL" in lines["failing row"]
        markdown = render_markdown([result])
        assert "| claim | verdict |" in markdown
        assert "| [2, 3] | FAIL |" in markdown
        assert "| < 1 | ok |" in markdown
        entry = make_report_artifact([result])["figures"]["fig8"]
        holding, failing, plain = entry["rows"]
        assert holding["holds"] is True
        assert holding["claim"] == {
            "low": None, "high": 1, "low_open": False, "high_open": True,
            "text": "< 1",
        }
        assert failing["holds"] is False
        assert plain["claim"] is None and plain["holds"] is None
        assert entry["failed_claims"] == ["failing row"]
        json.dumps(entry)


class TestPipeline:
    OPTIONS = ReportOptions(cache_root=None, jobs=1)

    @pytest.mark.parametrize("name", CHEAP_FIGURES)
    def test_cheap_figures_render_end_to_end(self, name):
        result = run_figure(name, self.OPTIONS)
        assert result.rows
        text = render_figure_text(result)
        assert result.spec.title in text
        # Analytic figures reproduce their paper values within 2%, and
        # each claims something that holds at any scale.
        for row in result.rows:
            if row.rel_delta is not None:
                assert abs(row.rel_delta) < 0.02, (name, row.label)
        assert any(row.claim is not None for row in result.rows)
        assert not result.failed_claims, [
            (row.label, row.measured, str(row.claim))
            for row in result.failed_claims
        ]

    def test_shared_source_is_run_once(self):
        results = run_figures(["fig8", "fig8"], self.OPTIONS)
        assert results[0].artifacts["model:fig8"] is results[1].artifacts[
            "model:fig8"
        ]

    def test_report_artifact_schema(self):
        results = run_figures(["fig8"], self.OPTIONS)
        artifact = make_report_artifact(results, self.OPTIONS)
        assert artifact["schema"] == "repro.report/v1"
        entry = artifact["figures"]["fig8"]
        assert entry["rows"]
        assert entry["max_abs_rel_delta"] == 0.0
        assert not entry["checked"]
        json.dumps(artifact)  # must be serializable

    def test_markdown_contains_every_row(self):
        results = run_figures(["fig8"], self.OPTIONS)
        markdown = render_markdown(results)
        assert "# Paper reproduction report" in markdown
        for row in results[0].rows:
            assert row.label in markdown

    def test_check_against_written_baselines_round_trips(self, tmp_path):
        results = run_figures(["fig8"], self.OPTIONS)
        write_baselines(results, root=tmp_path)
        checked = check_results(results, baseline_root=tmp_path)[0]
        assert checked.checked and checked.ok, checked.problems

    def test_check_flags_metric_drift(self, tmp_path):
        results = run_figures(["fig8"], self.OPTIONS)
        paths = write_baselines(results, root=tmp_path)
        baseline = json.loads(paths[0].read_text())
        point = next(iter(baseline["points"].values()))
        point["metrics"]["min_acts_between_alerts"] += 1.0
        paths[0].write_text(json.dumps(baseline))
        checked = check_results(results, baseline_root=tmp_path)[0]
        assert not checked.ok
        assert any("min_acts_between_alerts" in p for p in checked.problems)

    def test_check_flags_missing_baseline(self, tmp_path):
        results = run_figures(["fig8"], self.OPTIONS)
        checked = check_results(results, baseline_root=tmp_path)[0]
        assert not checked.ok
        assert any("baseline not found" in p for p in checked.problems)

    def test_shared_source_is_gated_once(self, tmp_path, monkeypatch):
        """A source referenced by several figures is read and diffed
        exactly once per check pass (every dependent figure still
        carries the findings)."""
        import repro.report.pipeline as pipeline
        from repro.sweep.family import SweepFamily

        results = run_figures(["fig8", "fig8"], self.OPTIONS)
        write_baselines(results, root=tmp_path)
        calls = []
        real = SweepFamily.check_against_baseline

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(SweepFamily, "check_against_baseline", counting)
        checked = pipeline.check_results(results, baseline_root=tmp_path)
        assert len(calls) == 1
        assert all(r.checked and r.ok for r in checked)

    def test_write_baselines_defaults_to_cwd_with_baseline_dir(
        self, tmp_path, monkeypatch
    ):
        """The default write root resolves like the check path: CWD
        when it holds benchmarks/baselines/, so write-then-check from
        the same directory round-trips."""
        (tmp_path / "benchmarks" / "baselines").mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        results = run_figures(["fig8"], self.OPTIONS)
        paths = write_baselines(results)
        assert [p.resolve() for p in paths] == [
            (tmp_path / "benchmarks" / "baselines" / "model_fig8.json")
            .resolve()
        ]
        assert check_results(results)[0].ok

    def test_write_baselines_falls_back_to_the_checkout(
        self, tmp_path, monkeypatch
    ):
        """Outside any baseline-bearing directory the write anchors at
        the repo toplevel — the same files --check resolves — instead
        of silently scattering baselines under the CWD."""
        import repro.report.pipeline as pipeline

        fake_checkout = tmp_path / "checkout"
        (fake_checkout / "benchmarks" / "baselines").mkdir(parents=True)
        cwd = tmp_path / "elsewhere"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setattr(
            pipeline, "git_toplevel", lambda: fake_checkout
        )
        results = run_figures(["fig8"], self.OPTIONS)
        paths = write_baselines(results)
        assert paths == [
            fake_checkout / "benchmarks" / "baselines" / "model_fig8.json"
        ]
