#!/usr/bin/env python3
"""Record, or check against, the quick goldens: each experiment's ``--quick`` render.

Usage::

    PYTHONPATH=src python scripts/record_goldens.py            # rewrite every golden
    PYTHONPATH=src python scripts/record_goldens.py --check OUT [OUT ...]

The goldens live in ``tests/golden/quick/<exp_id>.txt``: the text that
``python -m repro run <exp_id> --quick`` prints for the experiment,
before its ``[... finished in ...]`` line.  Recording runs every
registered experiment serially, uncached, under the default
:class:`~repro.exec.config.RunConfig`, the way the CLI does.
``tests/experiments/test_harness.py`` diffs each tier-1 quick run
against its file.  ``--check`` reads saved stdout of ``python -m repro
run all --quick`` (cold or cached, any ``--jobs``) and diffs each
rendered block against its golden, so serial, parallel and cached
output are compared as files.

Re-record rule: a change that moves a golden names, in CHANGES.md, each
number that moved and why.  Never re-record to make a failing run pass;
a golden that differs for no reason the change can state is a bug.

The goldens are recorded on CPython 3.11, the one interpreter they are
known to match.  On any other version this script neither records nor
checks, and says so.
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys
from pathlib import Path

from repro.exec.config import RunConfig
from repro.exec.runner import ParallelRunner
from repro.experiments.registry import all_experiments

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden" / "quick"

#: The interpreter the goldens were recorded with.
GOLDEN_PYTHON = (3, 11)

_FINISHED = re.compile(r"^\[(\S+) finished in [^\]]*\]$")


def golden_path(exp_id: str) -> Path:
    return GOLDEN_DIR / f"{exp_id}.txt"


def rendered_blocks(text: str) -> dict:
    """``{exp_id: rendered text}`` from ``python -m repro run`` stdout.

    Each block runs from the end of the previous ``[... finished in
    ...]`` line (and the blank line after it) to the next one.
    """
    blocks, current = {}, []
    for line in text.splitlines():
        match = _FINISHED.match(line)
        if match:
            blocks[match.group(1)] = "\n".join(current).lstrip("\n") + "\n"
            current = []
        else:
            current.append(line)
    return blocks


def record() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    runner = ParallelRunner(jobs=1, quick=True, cache=None, config=RunConfig())
    failed = 0
    for outcome in runner.run_iter(all_experiments()):
        if not outcome.ok:
            print(f"{outcome.exp_id}: raised, golden left as it was", file=sys.stderr)
            print(outcome.error, file=sys.stderr)
            failed += 1
            continue
        golden_path(outcome.exp_id).write_text(outcome.result.render() + "\n", encoding="utf-8")
        print(f"{outcome.exp_id}: recorded")
    return 1 if failed else 0


def check(paths) -> int:
    problems = []
    for path in paths:
        blocks = rendered_blocks(Path(path).read_text(encoding="utf-8"))
        missing = sorted(set(all_experiments()) - set(blocks))
        if missing:
            problems.append(f"{path}: no rendered block for {', '.join(missing)}")
        for exp_id, text in blocks.items():
            golden = golden_path(exp_id).read_text(encoding="utf-8")
            if text != golden:
                diff = difflib.unified_diff(
                    golden.splitlines(), text.splitlines(),
                    f"golden/{exp_id}", f"{path}:{exp_id}", lineterm="",
                )
                problems.append("\n".join(diff))
        print(f"{path}: {len(blocks)} rendered blocks checked")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs="+", metavar="OUT",
                        help="diff saved `run all --quick` stdout against the goldens")
    args = parser.parse_args(argv)
    if sys.version_info[:2] != GOLDEN_PYTHON:
        print(
            "quick goldens are recorded on CPython %d.%d only; this is %d.%d, "
            "so nothing was recorded or checked" % (*GOLDEN_PYTHON, *sys.version_info[:2])
        )
        return 0
    return check(args.check) if args.check else record()


if __name__ == "__main__":
    sys.exit(main())
