"""Usage-metering overhead: fig4 with the meter on vs plain telemetry.

The :class:`~repro.obs.usage.UsageMeter` piggybacks on metering points
that already exist — the network's ``_observe`` hook, the signature
observer, span-finish listeners — so attribution must stay cheap: a
metered run may cost at most ``--max-overhead`` times an unmetered run
under otherwise identical telemetry (1.5x, the ISSUE acceptance bar).
Both arms run ``run_figure("fig4")`` — the ``fig4`` load scenario's
deployment, provisioning and one delegate-chain request on the wire —
with live tracing; only ``meter_usage`` differs.

Run under pytest for the timing fixtures, or as a script::

    PYTHONPATH=src python benchmarks/bench_usage_overhead.py \
        --json BENCH_usage_overhead.json --smoke

The script exits non-zero when the overhead ratio exceeds the ceiling.
"""

import argparse
import sys
import time

from conftest import bench_payload, report, write_bench_json
from repro.obs.telemetry import Telemetry
from repro.workloads.load import run_figure

MAX_OVERHEAD = 1.5


def run_metered():
    """One full fig4 run with per-principal usage attribution live."""
    return run_figure("fig4", Telemetry(meter_usage=True))


def run_unmetered():
    """The same run with identical tracing but no meter attached."""
    return run_figure("fig4", Telemetry())


def measure(runner, iterations):
    runner()  # warm imports and first-use caches outside the timing
    start = time.perf_counter()
    for _ in range(iterations):
        runner()
    elapsed = time.perf_counter() - start
    return elapsed / iterations


def run_comparison(iterations, max_overhead):
    """Time both arms; returns the metrics payload."""
    metered = measure(run_metered, iterations)
    unmetered = measure(run_unmetered, iterations)
    overhead = metered / unmetered if unmetered > 0 else float("inf")

    telemetry = run_metered()
    meter = telemetry.usage
    principals = len({key[0] for key in meter.by_principal()})

    report(
        "usage-metering overhead: fig4 metered vs unmetered telemetry",
        [
            ("unmetered", f"{unmetered * 1e3:.3f}", "-", "-"),
            (
                "metered",
                f"{metered * 1e3:.3f}",
                str(meter.total_messages()),
                str(principals),
            ),
            ("overhead", f"{overhead:.2f}x", "-", "-"),
        ],
        ("arm", "ms/run", "msgs attributed", "principals"),
    )
    return {
        "workload": "fig4",
        "iterations": iterations,
        "metered_ms_per_run": round(metered * 1e3, 4),
        "unmetered_ms_per_run": round(unmetered * 1e3, 4),
        "overhead": round(overhead, 3),
        "max_overhead": max_overhead,
        "messages_attributed_per_run": meter.total_messages(),
        "bytes_attributed_per_run": meter.total_bytes(),
        "principals": principals,
        "passed": overhead < max_overhead,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_fig4_metered(benchmark):
    telemetry = benchmark(run_metered)
    assert telemetry.usage is not None
    assert telemetry.usage.total_messages() > 0
    assert len(telemetry.usage.by_principal()) > 0


def test_fig4_unmetered(benchmark):
    telemetry = benchmark(run_unmetered)
    assert telemetry.usage is None


def test_overhead_within_budget(benchmark):
    """The acceptance claim, in-suite: a quick comparison run."""
    payload = run_comparison(iterations=10, max_overhead=MAX_OVERHEAD)
    assert payload["passed"], (
        f"usage-metering overhead {payload['overhead']}x "
        f">= {MAX_OVERHEAD}x budget"
    )
    benchmark(lambda: None)


# ---------------------------------------------------------------------------
# script mode (CI writes BENCH_usage_overhead.json from here)
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", default="", help="write results to this JSON file"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small iteration count for CI",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=MAX_OVERHEAD,
        help=f"fail when metered/unmetered exceeds this "
        f"(default {MAX_OVERHEAD})",
    )
    args = parser.parse_args(argv)
    iterations = 20 if args.smoke else 200
    payload = run_comparison(iterations, args.max_overhead)
    write_bench_json(
        args.json,
        bench_payload(
            name="usage_overhead",
            config={
                "workload": "fig4",
                "iterations": iterations,
                "max_overhead": args.max_overhead,
            },
            metrics=payload,
            passed=payload["passed"],
        ),
    )
    if not payload["passed"]:
        print(
            f"FAIL: usage-metering overhead {payload['overhead']}x "
            f">= {args.max_overhead}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
