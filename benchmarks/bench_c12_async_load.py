"""C12 — concurrent delivery: async runtime throughput vs the sync baseline.

Three arms over the load generator (``repro.workloads.load``):

* **echo / zero latency** — the substrate price of the queue hop.  With
  no wire latency to hide and one interpreter lock, the async runtime
  cannot beat inline delivery; this arm keeps that cost honest.
* **pk-verify / wire latency** — the headline: per-hop latency dilated
  into real time, many principals in flight.  The sync network pays
  every transit sequentially; the async runtime overlaps them (and
  batch-prefetches signature checks across queued requests).  The gate
  is async throughput >= sync throughput on this arm.
* **scale** — one burst of 10k concurrent principals (1k in smoke)
  through the async engine, gated on ``peak_in_flight`` reaching the
  whole population with clean invariants and sane percentiles.

Run under pytest for the in-suite assertion, or as a script::

    PYTHONPATH=src:benchmarks python benchmarks/bench_c12_async_load.py [--smoke]

The script prints the arms and its gates, and exits non-zero when the
wire-latency gate fails, the scale arm cannot hold the full population
in flight, or any arm ends with invariant problems.  ``--smoke`` runs
smaller populations: a 1k scale burst instead of 10k.
"""

import argparse
import sys

from repro.workloads.load import LoadConfig, run_load

SEED = 7

#: (name, scenario, mode, dilated) -> size knobs per profile.
FULL = {
    "echo_principals": 500,
    "pk_principals": 100,
    "pk_ops": 3,
    "scale_principals": 10_000,
}
SMOKE = {
    "echo_principals": 100,
    "pk_principals": 24,
    "pk_ops": 2,
    "scale_principals": 1_000,
}

#: The dilated arm's wire: 2 ms base + 1 ms jitter per hop, paid for
#: real (time_dilation=1.0).  Small enough for CI, large enough that
#: the sync mode's serialized transits dominate its wall clock.
WIRE = dict(time_dilation=1.0, base_latency=0.002, jitter=0.001)


def run_arm(arm: str, **kwargs) -> dict:
    config = LoadConfig(seed=SEED, **kwargs)
    report = run_load(config)
    return {
        "arm": arm,
        "mode": report.mode,
        "principals": report.principals,
        "ops_failed": report.ops_failed,
        "throughput": round(report.throughput, 1),
        "p50_ms": round(report.percentiles_ms["p50"], 2),
        "p95_ms": round(report.percentiles_ms["p95"], 2),
        "p99_ms": round(report.percentiles_ms["p99"], 2),
        "peak_in_flight": report.peak_in_flight,
        "problems": list(report.problems),
    }


def run_arms(sizes: dict) -> bool:
    """Every arm at ``sizes``; True when all three gates hold."""
    from conftest import report as table

    arms = [
        run_arm(
            "echo-zero-latency",
            scenario="echo",
            mode="sync",
            principals=sizes["echo_principals"],
            ops=2,
        ),
        run_arm(
            "echo-zero-latency",
            scenario="echo",
            mode="aio",
            principals=sizes["echo_principals"],
            ops=2,
            concurrency=64,
        ),
        run_arm(
            "pk-verify-wire",
            scenario="pk-verify",
            mode="sync",
            principals=sizes["pk_principals"],
            ops=sizes["pk_ops"],
            **WIRE,
        ),
        run_arm(
            "pk-verify-wire",
            scenario="pk-verify",
            mode="aio",
            principals=sizes["pk_principals"],
            ops=sizes["pk_ops"],
            concurrency=64,
            **WIRE,
        ),
        run_arm(
            "scale-burst",
            scenario="echo",
            mode="aio",
            principals=sizes["scale_principals"],
            ops=1,
            concurrency=256,
        ),
    ]
    table(
        "C12: load-generator throughput by delivery mode (seeded runs)",
        [
            (
                arm["arm"],
                arm["mode"],
                arm["principals"],
                f"{arm['throughput']:,.1f}",
                f"{arm['p50_ms']:.2f}",
                f"{arm['p95_ms']:.2f}",
                f"{arm['p99_ms']:.2f}",
                arm["peak_in_flight"],
                "none" if not arm["problems"] else "; ".join(arm["problems"]),
            )
            for arm in arms
        ],
        (
            "arm",
            "mode",
            "principals",
            "ops/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "peak",
            "problems",
        ),
    )
    pk_sync = next(
        a for a in arms if a["arm"] == "pk-verify-wire" and a["mode"] == "sync"
    )
    pk_aio = next(
        a for a in arms if a["arm"] == "pk-verify-wire" and a["mode"] == "aio"
    )
    scale = next(a for a in arms if a["arm"] == "scale-burst")
    speedup = (
        pk_aio["throughput"] / pk_sync["throughput"]
        if pk_sync["throughput"]
        else 0.0
    )
    gates = {
        f"wire latency, aio/sync {speedup:.2f}x >= 1":
            pk_aio["throughput"] >= pk_sync["throughput"],
        "scale burst, whole population in flight":
            scale["peak_in_flight"] >= scale["principals"],
        "no invariant problems": all(not arm["problems"] for arm in arms),
    }
    for gate, held in gates.items():
        print(f"{'ok' if held else 'FAIL'}: {gate}")
    return all(gates.values())


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_async_beats_sync_under_wire_latency(benchmark):
    sync = run_arm(
        "pk-verify-wire",
        scenario="pk-verify",
        mode="sync",
        principals=32,
        ops=2,
        **WIRE,
    )
    aio = run_arm(
        "pk-verify-wire",
        scenario="pk-verify",
        mode="aio",
        principals=32,
        ops=2,
        concurrency=32,
        **WIRE,
    )
    assert sync["problems"] == [] and aio["problems"] == []
    assert aio["ops_failed"] == 0
    # Overlapped transits beat serialized ones; the ~2x headroom here
    # keeps the in-suite gate far from scheduler noise.
    assert aio["throughput"] >= sync["throughput"]
    benchmark(lambda: None)


def test_scale_burst_holds_the_population_in_flight(benchmark):
    scale = run_arm(
        "scale-burst",
        scenario="echo",
        mode="aio",
        principals=500,
        ops=1,
        concurrency=128,
    )
    assert scale["problems"] == []
    assert scale["peak_in_flight"] == 500
    benchmark(lambda: None)


# ---------------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller populations (CI): 1k scale burst instead of 10k",
    )
    args = parser.parse_args(argv)
    if not run_arms(SMOKE if args.smoke else FULL):
        print(
            "FAIL: async delivery lost to the sync baseline under wire "
            "latency, the scale burst fell short, or an invariant broke",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
