"""RunConfig: one frozen run configuration, installed per experiment.

A run's knobs (seed, tier, traffic, fleet, placement, fault injection)
travel as one :class:`RunConfig`.  The
runner installs it around every experiment by the same function, in
process and in a worker, so a serial run sees exactly what it salts
into the cache key, and injected faults depend on the run seed but not
on which experiments ran before.
"""

import json

import pytest

from repro.__main__ import main
from repro.exec import ParallelRunner, RunConfig
from repro.exec import runner as runner_mod
from repro.experiments.base import ExperimentResult
from repro.faults import FaultPlan, active_injector, injection
from repro.fleet.topology import active_fleet
from repro.obs import ResultSink
from repro.sim.rng import DEFAULT_SEED, installed_seed
from repro.traffic.tiers import default_tier, default_traffic, set_default_tier


def _knobs():
    fleet = active_fleet()
    return (
        installed_seed(), default_tier(), default_traffic(), fleet.n_devices, fleet.placement,
    )


DEFAULT_KNOBS = (DEFAULT_SEED, "small", "default", 1, "round-robin")


@pytest.fixture
def recorded(monkeypatch):
    """Replace the experiment body with one that records the knobs it saw."""
    seen = []

    def fake_run_experiment(exp_id, quick=False):
        seen.append(_knobs())
        return ExperimentResult(exp_id=exp_id, title=exp_id, description="")

    monkeypatch.setattr(runner_mod, "run_experiment", fake_run_experiment)
    return seen


class TestValidation:
    def test_defaults(self):
        config = RunConfig()
        assert config.seed == DEFAULT_SEED
        assert config.fleet_spec.is_default

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"tier": "huge"}, "scale tier"),
            ({"traffic": "fractal"}, "traffic mode"),
            ({"fleet": "2x"}, "--fleet expects"),
            ({"fleet": "0x2"}, "--fleet dimensions"),
            ({"placement": "hottest"}, "placement policy"),
            ({"fault_rate": 1.5}, "page_fault_rate"),
        ],
    )
    def test_bad_values_raise_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RunConfig(seed="7")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().tier = "large"


class TestInstall:
    def test_current_reads_the_process_defaults(self):
        assert RunConfig.current() == RunConfig()

    def test_installed_sets_every_knob_and_restores(self):
        config = RunConfig(
            seed=7, tier="medium", traffic="bursty", fleet="2x4", placement="numa-local",
        )
        with config.installed():
            assert _knobs() == (7, "medium", "bursty", 8, "numa-local")
            assert RunConfig.current() == config
        assert _knobs() == DEFAULT_KNOBS

    def test_installed_restores_after_an_error(self):
        with pytest.raises(RuntimeError):
            with RunConfig(tier="large").installed():
                raise RuntimeError("boom")
        assert default_tier() == "small"

    def test_fault_rate_installs_a_fresh_injector_per_install(self):
        config = RunConfig(seed=7, fault_rate=0.5)
        with config.installed():
            first = active_injector()
            draws = [first.page_fault(1, 4096 * i) for i in range(32)]
        assert active_injector() is None
        with config.installed():
            second = active_injector()
            assert second is not first
            assert [second.page_fault(1, 4096 * i) for i in range(32)] == draws

    def test_fault_seed_defaults_to_the_run_seed(self):
        def draws(config):
            with config.installed():
                return [active_injector().page_fault(1, 4096 * i) for i in range(64)]

        by_run_seed = draws(RunConfig(seed=7, fault_rate=0.5))
        assert by_run_seed == draws(RunConfig(seed=7, fault_rate=0.5, fault_seed=7))
        assert by_run_seed != draws(RunConfig(seed=8, fault_rate=0.5))

    def test_no_fault_rate_keeps_the_callers_injector(self):
        with injection(FaultPlan(seed=3, swq_reject_rate=1.0)) as injector:
            with RunConfig(tier="medium").installed():
                assert active_injector() is injector
            assert active_injector() is injector


class TestRunnerInstallsItsConfig:
    def test_serial_runner_runs_what_it_salts(self, recorded):
        """A serial runner used to salt the cache with its knobs but run
        under the process defaults."""
        config = RunConfig(tier="medium", traffic="bursty", fleet="2x4")
        runner = ParallelRunner(jobs=1, config=config)
        assert runner.config.variant == "fleet=2x4,tier=medium,traffic=bursty"
        runner.run(["fig4"])
        assert recorded == [(DEFAULT_SEED, "medium", "bursty", 8, "round-robin")]
        assert _knobs() == DEFAULT_KNOBS

    def test_no_config_means_the_installed_values(self, recorded):
        # The benchmark installs a tier, then builds a runner with only
        # jobs/quick/seed/cache: the run must see that tier.
        set_default_tier("medium")
        try:
            runner = ParallelRunner(jobs=1, quick=True, seed=5, cache=None)
            runner.run(["fig4"])
            assert default_tier() == "medium"
        finally:
            set_default_tier("small")
        assert runner.config == RunConfig(seed=5, tier="medium")
        assert recorded == [(5, "medium", "default", 1, "round-robin")]

    def test_seed_kwarg_overrides_the_config_seed(self):
        runner = ParallelRunner(config=RunConfig(seed=3, tier="large"), seed=9)
        assert runner.config == RunConfig(seed=9, tier="large")


def _render(config, exp_ids, jobs=1):
    outcomes = ParallelRunner(jobs=jobs, quick=True, config=config).run(exp_ids)
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    return {o.exp_id: o.result.render() for o in outcomes}


class TestFaultRuns:
    FAULTY = RunConfig(seed=7, fault_rate=0.05)

    def test_faults_do_not_depend_on_experiment_order(self):
        alone = _render(self.FAULTY, ["fig4"])["fig4"]
        after = _render(self.FAULTY, ["fig8", "fig4"])["fig4"]
        assert alone == after
        assert alone != _render(RunConfig(seed=7), ["fig4"])["fig4"]

    def test_parallel_matches_serial(self):
        targets = ["fig8", "fig4"]
        assert _render(self.FAULTY, targets, jobs=2) == _render(self.FAULTY, targets)


def _cli(capsys, *argv):
    main(["run", *argv])
    return [line for line in capsys.readouterr().out.splitlines() if "finished in" not in line]


class TestCli:
    def test_fault_seed_defaults_to_seed(self, capsys):
        base = ["fig4", "--quick", "--no-cache", "--fault-rate", "0.05", "--seed", "7"]
        assert _cli(capsys, *base) == _cli(capsys, *base, "--fault-seed", "7")

    def test_bad_fleet_exits_2(self, capsys):
        assert main(["run", "fig4", "--fleet", "2x"]) == 2
        assert "--fleet expects" in capsys.readouterr().err

    def test_cli_leaves_the_process_defaults_alone(self, capsys):
        _cli(capsys, "fig12", "--quick", "--no-cache", "--tier", "medium", "--seed", "3")
        assert _knobs() == DEFAULT_KNOBS


class TestSinkRecords:
    def test_result_lines_carry_config_and_seed(self, tmp_path):
        config = RunConfig(seed=11, placement="numa-local")
        records = {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            sink = ResultSink(path)
            ParallelRunner(jobs=jobs, quick=True, sink=sink, config=config).run(
                ["fig4", "fig12"]
            )
            sink.finalize()
            lines = [json.loads(line) for line in path.read_text().splitlines()]
            for line in lines:
                line.pop("wall", None)
            records[jobs] = lines
        results = [r for r in records[1] if r["kind"] == "result"]
        assert [(r["exp"], r["config"], r["seed"]) for r in results] == [
            ("fig4", "placement=numa-local", 11),
            ("fig12", "placement=numa-local", 11),
        ]
        assert records[1] == records[2]
