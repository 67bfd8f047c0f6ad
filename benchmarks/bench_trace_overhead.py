"""Telemetry overhead: the fig4 cascade traced vs with ``NO_TELEMETRY``.

The trace-context machinery promises two things at once: every wire
message carries a traceparent when telemetry is live, and the null
object costs nearly nothing when it is not.  This benchmark runs
``run_figure("fig4")`` — deploy the ``fig4`` load scenario, provision
one delegate chain over Kerberos, and present it to the file server on
the wire — both ways and gates on the ratio: full tracing (spans, span
events, trace store indexing, metrics with exemplars) must stay under
``MAX_OVERHEAD`` times the untraced run.

Run under pytest for the timing fixtures, or as a script::

    PYTHONPATH=src:benchmarks python benchmarks/bench_trace_overhead.py [--smoke]

The script prints both arms and exits non-zero when the overhead ratio
reaches the ceiling (2.5; ``--smoke`` runs fewer iterations against the
same ceiling — the margin is wide enough that shared runners do not
flake).
"""

import argparse
import gc
import sys
import time

from conftest import report
from repro.obs.telemetry import NO_TELEMETRY, Telemetry
from repro.workloads.load import run_figure

MAX_OVERHEAD = 2.5


def run_traced():
    """One full fig4 run under live telemetry."""
    return run_figure("fig4", Telemetry())


def run_untraced():
    """The same run against the null object — the seed-parity path."""
    return run_figure("fig4", NO_TELEMETRY)


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
    """Time both arms; returns the traced/untraced ratio."""
    traced = measure(run_traced, iterations)
    untraced = measure(run_untraced, iterations)
    overhead = traced / untraced if untraced > 0 else float("inf")

    telemetry = run_traced()
    spans = len(telemetry.tracer.spans)
    events = sum(len(s.events) for s in telemetry.tracer.spans)

    report(
        "trace overhead: fig4 with full telemetry vs NO_TELEMETRY",
        [
            ("untraced", f"{untraced * 1e3:.3f}", "-", "-"),
            ("traced", f"{traced * 1e3:.3f}", str(spans), str(events)),
            ("overhead", f"{overhead:.2f}x", "-", "-"),
        ],
        ("arm", "ms/run", "spans", "events"),
    )
    return overhead


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_fig4_traced(benchmark):
    telemetry = benchmark(run_traced)
    assert telemetry.tracer.find("net.send")  # the op uses the wire
    assert telemetry.tracer.find("rpc.handle")
    # The server's spans ride the request's trace context: one trace.
    (root,) = telemetry.tracer.roots()
    assert {s.trace_id for s in telemetry.tracer.spans} == {root.trace_id}
    assert len(telemetry.store) > 0


def test_fig4_untraced(benchmark):
    telemetry = benchmark(run_untraced)
    assert telemetry is NO_TELEMETRY


def test_overhead_within_budget(benchmark):
    """The acceptance claim, in-suite: a quick comparison run."""
    overhead = run_comparison(iterations=10)
    assert overhead < MAX_OVERHEAD, (
        f"telemetry overhead {overhead:.3f}x >= {MAX_OVERHEAD}x budget"
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
            f"FAIL: telemetry overhead {overhead:.3f}x >= {MAX_OVERHEAD}x",
            file=sys.stderr,
        )
        return 1
    print(f"ok: telemetry overhead {overhead:.3f}x < {MAX_OVERHEAD}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
