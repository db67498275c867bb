"""Checks of the benchmark itself, at smoke scale.

    python -m pytest bench/tests

One module-scoped ``bench/run.py --smoke --repeats 2 --trace`` run
(~30 s) backs the checks that every metric of ``BENCHMARK.json`` is
emitted with its unit, that traced self-time shares sum to 1, that the
layer counts land on the workloads that exercise them, and that the
simulated-output digest repeats across passes and under tracing.
``bench/compare.py``'s verdicts are checked on synthetic samples.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402
from run import WORKLOADS, load_spec  # noqa: E402

TRAFFIC = ("traffic-crossover-medium", "traffic-retry-medium")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke", "--repeats", "2",
         "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        document = json.load(fh)
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1]), document


def test_every_metric_is_emitted_with_its_unit(smoke):
    lines, result, _ = smoke
    spec = load_spec()
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            pattern = rf"{re.escape(workload)}\s+{re.escape(metric['name'])}\s+\S+ " \
                      rf"{re.escape(metric['unit'])}\s"
            assert any(re.match(pattern, line) for line in lines), (workload, metric)
        for metric in spec["per_layer"]:
            emitted = result["metrics"][f"{workload}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
    assert result["correct"] and result["failed"] == 0


def test_self_time_shares_sum_to_one(smoke):
    _, _, document = smoke
    for workload in WORKLOADS:
        metrics = document["traced"][workload]["metrics"]
        shares = [value for name, value in metrics.items() if name.endswith(".self_frac")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), workload


def test_layer_counts_land_on_the_workloads_that_exercise_them(smoke):
    _, _, document = smoke
    for workload in WORKLOADS:
        metrics = document["traced"][workload]["metrics"]
        assert (metrics["fleet.select.calls"] > 0) == (workload == "fleet-failover")
        assert (metrics["traffic.slo.completed.calls"] > 0) == (workload in TRAFFIC)


def test_sim_digest_repeats_across_passes_and_tracing(smoke):
    _, _, document = smoke
    (measured,) = document["sets"]
    for workload in WORKLOADS:
        record = measured[workload]
        assert len(record["samples"]["wall_s"]) == 2
        assert record["failed"] == 0
        assert record["sim_digest"]
        assert document["traced"][workload]["sim_digest"] == record["sim_digest"]


def _document(walls, attempted=10, failed=0, digest="d"):
    record = {
        "samples": {"wall_s": walls, "requests_per_s": [100.0 / w for w in walls],
                    "setup_s": [0.3] * 5, "peak_rss_mb": [40.0] * len(walls)},
        "sim_digest": digest, "attempted": attempted, "failed": failed,
    }
    return {"meta": {"seed": 1, "scale": "smoke"}, "sets": [{"fleet-failover": record}]}


@pytest.mark.parametrize(
    "new_walls, expected_wall, exit_code",
    [
        ([10.0, 10.1, 10.2, 10.1], "unchanged", 0),
        ([20.0, 20.2, 20.4, 20.2], "worse", 1),
        ([5.0, 5.05, 5.1, 5.05], "better", 0),
        ([5.0, 20.0, 7.0, 18.0], "unresolved", 0),
    ],
)
def test_compare_verdicts(tmp_path, capsys, new_walls, expected_wall, exit_code):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_document([10.0, 10.1, 10.0, 10.1])))
    new.write_text(json.dumps(_document(new_walls)))
    assert compare.main([str(base), str(new)]) == exit_code
    wall_row = next(line for line in capsys.readouterr().out.splitlines()
                    if line.split()[:2] == ["fleet-failover", "wall_s"])
    assert expected_wall in wall_row


def test_compare_fails_on_a_rise_in_error_rate(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_document([10.0, 10.1])))
    new.write_text(json.dumps(_document([10.0, 10.1], failed=1)))
    assert compare.main([str(base), str(new)]) == 1
    assert compare.main([f"{new}:0", str(new)]) == 0
