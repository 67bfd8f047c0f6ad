"""C9 — resilience: goodput under message loss, with and without retries.

The chaos harness replays the Fig. 4 delegate-cascade workload on the
resilient fabric while the simulated network drops request legs at
0–30%.  Two arms per drop rate:

* **retries on** — the resilient channel's backoff/dedupe/breaker stack;
  the claim under test is that goodput stays at 100% (drops become
  latency, not losses) and outcomes match a fault-free baseline;
* **retries off** — the control arm, whose goodput decays roughly as
  the per-unit delivery probability, showing what the layer buys.

Run under pytest for the in-suite assertion, or as a script::

    PYTHONPATH=src:benchmarks python benchmarks/bench_c9_resilience.py [--smoke]

The script prints the sweep and exits non-zero when the resilient arm
loses any unit at or below the top drop rate, or diverges from the
fault-free baseline.  ``--smoke`` runs fewer units and drop rates.
"""

import argparse
import sys

from repro.resil.chaos import CampaignSpec, run_campaign

SEED = 7
FULL_RATES = (0.0, 0.1, 0.2, 0.3)
SMOKE_RATES = (0.0, 0.2)
#: Units per campaign.
FULL_UNITS = 25
SMOKE_UNITS = 8


def run_arm(drop_rate: float, retry: bool, units: int) -> dict:
    report = run_campaign(
        CampaignSpec(
            figure="fig4",
            seed=SEED,
            units=units,
            drop_rate=drop_rate,
            retry=retry,
        )
    )
    recovered = report.spec.units - report.unrecoverable
    return {
        "retry": retry,
        "goodput": round(recovered / report.spec.units, 4),
        "parity": report.parity,
        "retries": report.stats["retries"],
    }


def run_sweep(rates, units: int) -> bool:
    """Goodput vs drop rate for both arms; True when the resilient arm
    recovered every unit with parity at every rate."""
    from conftest import report as table

    arms = []
    rows = []
    for rate in rates:
        with_retries = run_arm(rate, retry=True, units=units)
        without = run_arm(rate, retry=False, units=units)
        arms.extend([with_retries, without])
        rows.append(
            (
                f"{rate:.0%}",
                f"{without['goodput']:.0%}",
                f"{with_retries['goodput']:.0%}",
                with_retries["retries"],
                "yes" if with_retries["parity"] else "NO",
            )
        )
    table(
        "C9: Fig.4 cascade goodput vs request-drop rate (seeded campaigns)",
        rows,
        (
            "drop rate",
            "goodput (no retry)",
            "goodput (retries)",
            "retries spent",
            "parity",
        ),
    )
    return all(
        arm["goodput"] == 1.0 and arm["parity"]
        for arm in arms
        if arm["retry"]
    )


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_retries_hold_goodput_at_twenty_percent_loss(benchmark):
    resilient = run_arm(0.2, retry=True, units=8)
    control = run_arm(0.2, retry=False, units=8)
    assert resilient["goodput"] == 1.0
    assert resilient["parity"]
    assert control["goodput"] < 1.0
    benchmark(lambda: None)


# ---------------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer units and drop rates (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        passed = run_sweep(SMOKE_RATES, SMOKE_UNITS)
    else:
        passed = run_sweep(FULL_RATES, FULL_UNITS)
    if not passed:
        print(
            "FAIL: the resilient arm lost work or diverged from the "
            "fault-free baseline",
            file=sys.stderr,
        )
        return 1
    print("ok: the resilient arm recovered every unit with parity")
    return 0


if __name__ == "__main__":
    sys.exit(main())
