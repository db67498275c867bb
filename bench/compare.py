"""Compare two benchmark result files, workload by workload.

    python bench/compare.py BASE.json NEW.json

Both files are ``bench/run.py --out`` output.  ``PATH:N`` takes set N of
a file; a bare ``PATH`` pools all of its sets.  For each workload and
end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the change of the median (positive = worse) and a
verdict against the metric's bound:

* ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, and not every new sample beats every
  base sample (if every one does, the verdict is ``better``);
* otherwise ``worse`` or ``better`` when the median moved by more than
  the bound that way, else ``unchanged``.

It also prints each workload's ``error_rate`` and whether the
``sim_digest`` is the same on both sides.  The exit code is 1 on any
``worse`` verdict or any rise in ``error_rate``, else 0.
"""

from __future__ import annotations

import json
import re
import sys
from typing import List, Tuple

from run import load_spec, pooled, quartiles


def load(arg: str) -> Tuple[dict, List[dict]]:
    """``(meta, sets)`` of one result file, or of one set in it."""
    match = re.fullmatch(r"(.*):(\d+)", arg)
    path = match.group(1) if match else arg
    with open(path) as fh:
        document = json.load(fh)
    sets = document["sets"]
    if match:
        sets = [sets[int(match.group(2))]]
    return document["meta"], sets


def verdict(base: List[float], new: List[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, change)``; ``change`` is the median's relative move,
    positive when it got worse."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (nm - bm) / bm
    if max((b3 - b1) / bm, (n3 - n1) / nm) > bound:
        beats = all(sign * (n - b) < 0 for n in new for b in base)
        return ("better" if beats else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def _checks(sets: List[dict], workload: str) -> Tuple[float, set]:
    attempted = sum(s[workload]["attempted"] for s in sets)
    failed = sum(s[workload]["failed"] for s in sets)
    digests = {s[workload]["sim_digest"] for s in sets}
    return (failed / attempted if attempted else 1.0), digests


def compare(base_arg: str, new_arg: str) -> int:
    spec = load_spec()
    base_meta, base_sets = load(base_arg)
    new_meta, new_sets = load(new_arg)
    workloads = [w for w in base_sets[0] if w in new_sets[0]]
    for side, sets in (("base", base_sets), ("new", new_sets)):
        for workload in sets[0]:
            if workload not in workloads:
                print(f"{workload}: only in {side}, not compared")
    regressions = 0
    row = "{:26s} {:16s} {:>30s} {:>30s} {:>8s}  {}"
    print(row.format("workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
                     "change", "verdict"))
    for workload in workloads:
        base, new = pooled(base_sets, workload), pooled(new_sets, workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not base.get(name) or not new.get(name):
                continue
            outcome, change = verdict(base[name], new[name], metric["better"], metric["bound"])
            regressions += outcome == "worse"
            cells = []
            for values in (base[name], new[name]):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
            print(row.format(workload, name, *cells, f"{100 * change:+.1f}%",
                             f"{outcome} (bound {100 * metric['bound']:.0f}%)"))
        base_errors, base_digests = _checks(base_sets, workload)
        new_errors, new_digests = _checks(new_sets, workload)
        rose = new_errors > base_errors
        regressions += rose
        print(row.format(workload, "error_rate", f"{base_errors:.3g}", f"{new_errors:.3g}",
                         "", "worse" if rose else "not higher"))
        if base_meta["seed"] != new_meta["seed"] or base_meta["scale"] != new_meta["scale"]:
            same = "not comparable (seed or scale differs)"
        elif len(base_digests | new_digests) == 1:
            same = "identical"
        else:
            same = "DIFFERENT"
        print(row.format(workload, "sim_digest", "", "", "", same))
    return 1 if regressions else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    return compare(*args)


if __name__ == "__main__":
    sys.exit(main())
