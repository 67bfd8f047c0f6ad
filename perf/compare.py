#!/usr/bin/env python3
"""Compare two result sets of ``perf/run.py --json`` under each metric's bound.

    python3 perf/compare.py A.json B.json

``A`` is the parent (or the first set of a same-commit pair), ``B`` the
change.  One row per workload x end-to-end metric:

* ``worse``      — B's median is worse than A's by more than the bound
                   ``BENCHMARK.json`` fixes for that metric (for the
                   failure count: any increase);
* ``unresolved`` — the medians are within the bound but the run-to-run
                   spread (interquartile distance / median) of either set
                   is wider than the bound, and B's runs do not all read
                   better than all of A's;
* ``ok``         — otherwise.

Exits non-zero if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script: import siblings through the ``perf`` package, so
    # ``perf/trace.py`` never shadows the stdlib ``trace``.
    sys.path[0] = str(ROOT)

from perf.stats import spread, summary  # noqa: E402


def judge(a: list, b: list, better: str, bound: float) -> tuple:
    """``(status, relative worsening of B's median, widest spread)``."""
    median_a, median_b = summary(a)["median"], summary(b)["median"]
    if better == "lower":
        change = (median_b - median_a) / median_a
        separated = max(b) < min(a)
    else:
        change = (median_a - median_b) / median_a
        separated = min(b) > max(a)
    widest = max(spread(a), spread(b))
    if change > bound:
        status = "worse"
    elif widest > bound and not separated:
        status = "unresolved"
    else:
        status = "ok"
    return status, change, widest


def compare(set_a: dict, set_b: dict, spec: dict, out=sys.stdout) -> int:
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(
        f"{'workload':<14} {'metric':<18} {'A median':>14} {'B median':>14} "
        f"{'worse by':>9} {'bound':>6} {'spread':>7}  status",
        file=out,
    )
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in set_a["results"] or workload not in set_b["results"]:
            continue
        failed_a, failed_b = set_a["failed"][workload], set_b["failed"][workload]
        status = "worse" if failed_b > failed_a else "ok"
        counts[status] += 1
        print(
            f"{workload:<14} {'failed ops':<18} {failed_a:>14} {failed_b:>14} "
            f"{'':>9} {'any':>6} {'':>7}  {status}",
            file=out,
        )
        for metric in spec["end_to_end"]:
            a = set_a["results"][workload][metric["name"]]["values"]
            b = set_b["results"][workload][metric["name"]]["values"]
            status, change, widest = judge(
                a, b, metric["better"], metric["bound"]
            )
            counts[status] += 1
            print(
                f"{workload:<14} {metric['name']:<18} "
                f"{summary(a)['median']:>14.6f} {summary(b)['median']:>14.6f} "
                f"{change:>+9.2%} {metric['bound']:>6.0%} {widest:>7.2%}  {status}",
                file=out,
            )
    print(
        f"{counts['ok']} ok, {counts['unresolved']} unresolved, "
        f"{counts['worse']} worse",
        file=out,
    )
    return 1 if counts["worse"] else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    sets = []
    for path in argv:
        with open(path) as handle:
            sets.append(json.load(handle))
    return compare(sets[0], sets[1], spec)


if __name__ == "__main__":
    sys.exit(main())
