"""Durability — WAL overhead and crash-restart recovery parity.

Two measurements per run:

* **WAL overhead** — the same seeded transfer workload against one
  accounting server with and without a :class:`DurabilityStore`, timed
  wall-clock per operation.  The claim under test is that appending a
  framed record per committed posting costs microseconds, not a second
  data path.
* **Crash-restart parity** — chaos campaigns (Fig. 4 file cascade,
  Fig. 5 check clearing) that kill a server mid-campaign and rebuild it
  from WAL+snapshot.  The recovered arm must match the fault-free
  baseline unit-for-unit with empty ``recovery_problems`` — the
  recovery-is-correct gate, run in CI with real numbers attached.

Run under pytest for the in-suite assertion, or as a script::

    PYTHONPATH=src:benchmarks python benchmarks/bench_durability.py \
        --json BENCH_durability.json --smoke

The script exits non-zero when any crash-restart arm loses parity or
reports recovery problems.
"""

import argparse
import shutil
import sys
import tempfile
import time

from repro.durability import DurabilityStore
from repro.resil.chaos import CampaignSpec, run_campaign
from repro.testbed import Realm

SEED = 7

#: (figure, server to kill, unit tick) arms for the recovery gate.
FULL_ARMS = (
    ("fig4", "files", 5),
    ("fig5", "bank-a", 3),
    ("fig5", "bank-b", 7),
)
SMOKE_ARMS = (("fig4", "files", 3), ("fig5", "bank-a", 3))


def time_transfers(transfers: int, durable: bool, data_dir) -> dict:
    """Wall-clock per-transfer cost with the WAL on or off."""
    realm = Realm(seed=b"bench-durab")
    alice = realm.user("alice")
    bob = realm.user("bob")
    kwargs = {}
    store = None
    if durable:
        store = DurabilityStore(data_dir)
        kwargs["durability"] = store
    bank = realm.accounting_server("bank", **kwargs)
    bank.create_account(
        "alice", alice.principal, {"dollars": transfers + 1}
    )
    bank.create_account("bob", bob.principal)
    client = alice.accounting_client(bank.principal)
    start = time.perf_counter()
    for _ in range(transfers):
        client.transfer("alice", "bob", "dollars", 1)
    elapsed = time.perf_counter() - start
    return {
        "durable": durable,
        "transfers": transfers,
        "per_op_us": round(elapsed / transfers * 1e6, 1),
        "wal_appends": store.appends if store is not None else 0,
    }


def run_recovery_arm(figure: str, server: str, tick: int, units: int) -> dict:
    report = run_campaign(
        CampaignSpec(
            figure=figure,
            seed=SEED,
            units=units,
            crash_restart=((server, tick),),
        )
    )
    return {
        "figure": figure,
        "killed": server,
        "tick": tick,
        "units": report.spec.units,
        "parity": report.parity,
        "recovery_ok": not report.recovery_problems,
        "recovery_problems": report.recovery_problems,
        "wal_replayed": report.extras.get("wal records replayed", 0),
        "finale_matches": report.finale == report.baseline_finale,
        "sim_seconds": round(report.sim_seconds, 3),
    }


def run_suite(arms, units: int, transfers: int) -> dict:
    from conftest import report as table

    scratch = tempfile.mkdtemp(prefix="bench-durab-")
    try:
        baseline = time_transfers(transfers, False, None)
        durable = time_transfers(transfers, True, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    overhead = durable["per_op_us"] - baseline["per_op_us"]
    recovery = [
        run_recovery_arm(figure, server, tick, units)
        for figure, server, tick in arms
    ]
    table(
        "Durability: WAL overhead and crash-restart recovery",
        [
            (
                f"{arm['figure']} kill {arm['killed']}@{arm['tick']}",
                arm["wal_replayed"],
                "yes" if arm["parity"] else "NO",
                "ok" if arm["recovery_ok"] else "PROBLEMS",
            )
            for arm in recovery
        ],
        ("arm", "wal replayed", "parity", "recovery"),
    )
    print(
        f"  per-transfer: {baseline['per_op_us']}us bare, "
        f"{durable['per_op_us']}us with WAL "
        f"({overhead:+.1f}us, {durable['wal_appends']} appends)"
    )
    passed = all(
        arm["parity"] and arm["recovery_ok"] and arm["finale_matches"]
        for arm in recovery
    )
    return {
        "benchmark": "durability",
        "workload": "wal-overhead+crash-restart",
        "seed": SEED,
        "passed": passed,
        "overhead": {"baseline": baseline, "durable": durable},
        "recovery": recovery,
    }


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_crash_restart_recovers_with_parity(benchmark):
    arm = run_recovery_arm("fig5", "bank-a", 3, units=8)
    assert arm["parity"]
    assert arm["recovery_ok"], arm["recovery_problems"]
    assert arm["finale_matches"]
    assert arm["wal_replayed"] > 0
    benchmark(lambda: None)


# ---------------------------------------------------------------------------
# script mode (CI writes BENCH_durability.json from here)
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", default="", help="write results to this JSON file"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer units, arms, and transfers (CI)",
    )
    parser.add_argument(
        "--units",
        type=int,
        default=None,
        help="units per campaign (default 20, or 10 with --smoke)",
    )
    args = parser.parse_args(argv)
    units = args.units if args.units is not None else (10 if args.smoke else 20)
    arms = SMOKE_ARMS if args.smoke else FULL_ARMS
    transfers = 50 if args.smoke else 200
    from conftest import bench_payload, write_bench_json

    payload = run_suite(arms, units, transfers)
    write_bench_json(
        args.json,
        bench_payload(
            name="durability_recovery",
            config={"units": units, "arms": [list(a) for a in arms]},
            metrics=payload,
            passed=payload["passed"],
        ),
    )
    if not payload["passed"]:
        print(
            "FAIL: a crash-restart arm lost parity or reported "
            "recovery problems",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
