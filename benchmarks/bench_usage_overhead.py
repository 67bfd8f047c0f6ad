"""Usage-metering overhead: fig4 with the meter on vs plain telemetry.

The :class:`~repro.obs.usage.UsageMeter` is a fold over spans the tracer
records anyway (a span-finish listener) plus the signature observer, so
attribution must stay cheap: a metered run must cost less than
``MAX_OVERHEAD`` (1.5) times an unmetered run under otherwise identical
telemetry.  Both arms run ``run_figure("fig4")`` — the ``fig4`` load scenario's
deployment, provisioning and one delegate-chain request on the wire —
with live tracing; only ``meter_usage`` differs.

Run under pytest for the timing fixtures, or as a script::

    PYTHONPATH=src:benchmarks python benchmarks/bench_usage_overhead.py [--smoke]

The script prints both arms and exits non-zero when the overhead ratio
reaches the ceiling; ``--smoke`` runs fewer iterations against the same
ceiling.
"""

import argparse
import gc
import sys
import time

from conftest import report
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
    # Collect first: a full collection of garbage that earlier runs (or
    # earlier tests in the same process) left would otherwise land in
    # whichever arm is timed first.
    gc.collect()
    start = time.perf_counter()
    for _ in range(iterations):
        runner()
    elapsed = time.perf_counter() - start
    return elapsed / iterations


def run_comparison(iterations):
    """Time both arms; returns the metered/unmetered ratio."""
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
    return overhead


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
    overhead = run_comparison(iterations=10)
    assert overhead < MAX_OVERHEAD, (
        f"usage-metering overhead {overhead:.3f}x >= {MAX_OVERHEAD}x budget"
    )
    benchmark(lambda: None)


# ---------------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small iteration count for CI",
    )
    args = parser.parse_args(argv)
    overhead = run_comparison(20 if args.smoke else 200)
    if overhead >= MAX_OVERHEAD:
        print(
            f"FAIL: usage-metering overhead {overhead:.3f}x >= {MAX_OVERHEAD}x",
            file=sys.stderr,
        )
        return 1
    print(f"ok: usage-metering overhead {overhead:.3f}x < {MAX_OVERHEAD}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
