"""Import boundaries: each entry point loads only the modules its run executes.

Every interpreter compiles each module it imports, so a module an entry
point loads but never runs is pure set-up cost.  The package
``__init__``s re-export lazily (module ``__getattr__``); these tests pin
what each entry point may load, each in a fresh interpreter.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.registry import all_experiments, module_path

SRC = str(Path(repro.__file__).resolve().parent.parent)


def loaded_after(code: str) -> list:
    """Module names in ``sys.modules`` after running ``code`` in a fresh interpreter.

    ``code`` may leave a list of names in ``result``; that list is
    returned instead.
    """
    script = (
        code + "\nimport json, sys\n"
        "print(json.dumps(globals().get('result', sorted(sys.modules))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _under(modules, *packages):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


class TestEntryPoints:
    def test_fleet_harness_loads_no_experiment_layer(self):
        modules = loaded_after("import repro.fleet.harness")
        assert not _under(
            modules, "repro.workloads", "repro.experiments", "repro.exec.fingerprint",
            "repro.analysis",
        )

    def test_engine_loads_no_device_model(self):
        modules = loaded_after("import repro.sim.engine")
        assert not _under(modules, "repro.dsa")

    def test_runner_loads_no_process_pool(self):
        modules = loaded_after("import repro.exec.runner")
        assert "concurrent.futures.process" not in modules
        assert "repro.exec.fingerprint" not in modules

    def test_serial_uncached_run_imports_nothing_in_the_timed_region(self):
        # bench/run.py times only the run; a module first imported there
        # would move its compile time from setup_s into wall_s.
        added = loaded_after(
            "import sys\n"
            "from repro.exec.runner import ParallelRunner\n"
            "from repro.experiments.registry import get_experiment\n"
            "from repro.traffic.tiers import set_default_tier\n"
            "set_default_tier('small')\n"
            "get_experiment('traffic-crossover')\n"
            "before = set(sys.modules)\n"
            "[outcome] = ParallelRunner(jobs=1, cache=None).run(['traffic-crossover'])\n"
            "assert outcome.ok, outcome.error\n"
            "result = sorted(set(sys.modules) - before)\n"
        )
        assert not _under(added, "repro")


class TestLazyReexports:
    def test_every_public_name_is_listed_by_dir(self):
        listed = dir(repro)
        assert all(name in listed for name in repro.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert not hasattr(repro, "no_such_name")

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    def test_first_access_caches_the_value(self):
        from repro.workloads.microbench import run_dsa_microbench

        assert repro.run_dsa_microbench is run_dsa_microbench
        assert vars(repro)["run_dsa_microbench"] is run_dsa_microbench

    @pytest.mark.parametrize(
        "package", ["repro.exec", "repro.fleet", "repro.obs", "repro.runtime"]
    )
    def test_subpackage_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert name in dir(module)
            assert getattr(module, name) is not None
        with pytest.raises(AttributeError):
            module.no_such_name


def _lazy_tables() -> dict:
    """``{package: lazily re-exported names}`` from each package's ``_LAZY``."""
    tables = {}
    for init in Path(repro.__file__).parent.rglob("__init__.py"):
        package = ".".join(init.relative_to(SRC).parent.parts)
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_LAZY"]
            ):
                tables[package] = {key.value for key in node.value.keys}
    return tables


class TestCacheKeyClosure:
    """The result cache keys an experiment by its static import closure
    (``repro.exec.fingerprint``), which does not follow a lazy table."""

    @pytest.fixture(scope="class")
    def loaded_by_import(self):
        """``{module: repro modules loaded}`` for each experiment module.

        One interpreter imports numpy, then forks a child per experiment
        that imports the module: each child starts with no ``repro``
        module loaded, as a fresh interpreter does, without paying for
        numpy 28 times.
        """
        modules = [module_path(exp_id) for exp_id in all_experiments()]
        return dict(zip(modules, loaded_after(
            "import importlib, json, os, sys\n"
            "import numpy\n"
            "result = []\n"
            f"for module in {modules!r}:\n"
            "    read, write = os.pipe()\n"
            "    if os.fork() == 0:\n"
            "        importlib.import_module(module)\n"
            "        os.write(write, json.dumps(sorted(sys.modules)).encode())\n"
            "        os._exit(0)\n"
            "    os.close(write)\n"
            "    with os.fdopen(read) as pipe:\n"
            "        result.append(json.load(pipe))\n"
            "    os.wait()\n"
        )))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("exp_id", all_experiments())
    def test_closure_covers_every_module_an_import_loads(self, exp_id, loaded_by_import):
        from repro.exec.fingerprint import source_closure

        module = module_path(exp_id)
        loaded = _under(loaded_by_import[module], "repro")
        assert module in loaded
        closure = source_closure(module)
        assert [name for name in loaded if name not in closure] == []

    def test_the_lazy_tables_are_found(self):
        tables = _lazy_tables()
        assert set(tables) == {
            "repro", "repro.exec", "repro.fleet", "repro.obs", "repro.runtime"
        }
        assert tables["repro"] == set(repro._LAZY)

    def test_no_module_imports_a_lazy_name_through_its_package(self):
        tables = _lazy_tables()
        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom) or node.module not in tables:
                    continue
                names = {alias.name for alias in node.names}
                # ``from repro import ...`` is out whatever it names.
                if node.module == "repro" or names & tables[node.module]:
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert offenders == []
