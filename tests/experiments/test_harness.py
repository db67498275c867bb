"""Tests for the experiment registry, result container, and quick runs.

Every registered experiment gets a quick-mode smoke test: it must run,
produce at least one table, keep all its paper anchors, and render
exactly its golden file, ``tests/golden/quick/<exp_id>.txt``
(re-recorded only by ``scripts/record_goldens.py``; see its re-record
rule).
"""

import functools
import sys
import types
from pathlib import Path

import pytest

from repro.analysis.tables import Table
from repro.experiments import all_experiments, get_experiment, resolve_ids, run_experiment
from repro.experiments import registry as registry_module
from repro.experiments.base import AnchorCheck, ExperimentResult
from repro.obs import MetricsRegistry, install_metrics, uninstall_metrics


class TestRegistry:
    def test_lists_all_paper_items(self):
        experiments = all_experiments()
        assert "table1" in experiments and "table2" in experiments
        for figure in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 21):
            assert f"fig{figure}" in experiments
        assert "faults" in experiments
        assert "cbdma" in experiments
        assert "ablations" in experiments
        assert "guidelines" in experiments
        for traffic in ("traffic-crossover", "traffic-qos", "traffic-retry"):
            assert traffic in experiments
        assert "fleet-scaling" in experiments
        assert len(experiments) == 28

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_modules_expose_run(self):
        for exp_id in all_experiments():
            module = get_experiment(exp_id)
            assert callable(module.run)


class TestResolveIds:
    def test_all_expands_to_every_experiment(self):
        assert resolve_ids("all") == all_experiments()

    def test_single_id(self):
        assert resolve_ids("fig5") == ["fig5"]

    def test_comma_separated_list_keeps_order(self):
        assert resolve_ids("fig2,fig5,table1") == ["fig2", "fig5", "table1"]

    def test_whitespace_and_duplicates_are_tolerated(self):
        assert resolve_ids(" fig2 , fig5 ,fig2 ") == ["fig2", "fig5"]

    def test_unknown_id_fails_upfront_with_registry_message(self):
        with pytest.raises(KeyError, match="unknown experiment 'fig99'"):
            resolve_ids("fig2,fig99,fig5")

    def test_empty_spec_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            resolve_ids(" , ,")


class TestMetricsSnapshotConsistency:
    """A failed run must never pollute the next result's snapshot."""

    @pytest.fixture(autouse=True)
    def _registry(self):
        registry = MetricsRegistry()
        install_metrics(registry)
        yield registry
        uninstall_metrics()

    def _register(self, monkeypatch, name, run):
        module = types.ModuleType(f"repro_test_{name}")
        module.run = run
        monkeypatch.setitem(sys.modules, f"repro_test_{name}", module)
        monkeypatch.setitem(registry_module._EXPERIMENTS, name, f"repro_test_{name}")

    def test_failure_clears_partial_metrics(self, monkeypatch, _registry):
        def boom(quick=False):
            _registry.counter("boom.partial").add(41)
            raise RuntimeError("mid-run failure")

        self._register(monkeypatch, "boom", boom)
        with pytest.raises(RuntimeError, match="mid-run failure"):
            run_experiment("boom", quick=True)
        assert len(_registry) == 0

    def test_next_run_snapshot_excludes_failed_runs_metrics(self, monkeypatch, _registry):
        def boom(quick=False):
            _registry.counter("boom.partial").add(41)
            raise RuntimeError("mid-run failure")

        def good(quick=False):
            _registry.counter("good.done").add(1)
            return ExperimentResult("good", "t", "d")

        self._register(monkeypatch, "boom", boom)
        self._register(monkeypatch, "good", good)
        with pytest.raises(RuntimeError):
            run_experiment("boom", quick=True)
        result = run_experiment("good", quick=True)
        assert result.metrics == {"good.done": 1.0}
        assert "boom.partial" not in result.metrics

    def test_snapshot_scoped_to_one_experiment_even_without_cli_clear(
        self, monkeypatch, _registry
    ):
        def first(quick=False):
            _registry.counter("first.count").add(1)
            return ExperimentResult("first", "t", "d")

        def second(quick=False):
            _registry.counter("second.count").add(1)
            return ExperimentResult("second", "t", "d")

        self._register(monkeypatch, "first", first)
        self._register(monkeypatch, "second", second)
        run_experiment("first", quick=True)
        result = run_experiment("second", quick=True)
        assert result.metrics == {"second.count": 1.0}


class TestResultContainer:
    def test_anchor_rendering(self):
        check = AnchorCheck("x", "1", "2", holds=False)
        assert "MISS" in check.render()
        assert "OK" in AnchorCheck("x", "1", "1", holds=True).render()

    def test_result_render_includes_everything(self):
        result = ExperimentResult("id", "Title", "Desc")
        table = Table("T", ["c"])
        table.add_row("v")
        result.tables.append(table)
        result.check("anchor", "paper", "measured", True)
        rendered = result.render()
        assert "Title" in rendered and "T" in rendered and "anchor" in rendered
        assert result.anchors_hold

    def test_anchors_hold_false_on_miss(self):
        result = ExperimentResult("id", "t", "d")
        result.check("bad", "x", "y", False)
        assert not result.anchors_hold


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden" / "quick"

#: The interpreter the goldens were recorded with.  No other version
#: has been shown to render the same bytes.
GOLDEN_PYTHON = (3, 11)


@functools.lru_cache(maxsize=None)
def _quick_result(exp_id):
    """One quick run per experiment, shared by the anchor and golden tests."""
    return run_experiment(exp_id, quick=True)


@pytest.mark.parametrize("exp_id", all_experiments())
def test_quick_run_keeps_anchors(exp_id):
    result = _quick_result(exp_id)
    assert result.exp_id == exp_id
    assert result.tables, f"{exp_id} produced no tables"
    missed = [anchor.name for anchor in result.anchors if not anchor.holds]
    assert not missed, f"{exp_id} missed anchors: {missed}"


@pytest.mark.skipif(
    sys.version_info[:2] != GOLDEN_PYTHON,
    reason="quick goldens are recorded on CPython 3.11 only; no identical "
    "render has been shown on other versions",
)
@pytest.mark.parametrize("exp_id", all_experiments())
def test_quick_run_matches_golden(exp_id):
    golden = (GOLDEN_DIR / f"{exp_id}.txt").read_text(encoding="utf-8")
    assert _quick_result(exp_id).render() + "\n" == golden
