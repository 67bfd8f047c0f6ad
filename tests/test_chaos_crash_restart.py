"""Crash-restart chaos: kill a server mid-campaign, recover, demand parity.

Each campaign runs a figure workload twice on identically-seeded realms —
once untouched, once with a server killed before a randomized unit and
rebuilt from its WAL+snapshot.  The recovered arm must reach the exact
outcomes, finale balances, and audit trail of the uninterrupted run, on
both the sync and asyncio runtimes; ``recovery_problems`` (conservation,
audit parity, recovery-report problems) must stay empty.
"""

import random

import pytest

from repro.ledger.fuzz import run_fuzz
from repro.resil.chaos import CampaignSpec, run_campaign

#: Figure workloads with a restartable server, and which one dies.
ARMS = [
    ("fig1", "files"),
    ("fig3", "files"),
    ("fig4", "files"),
    ("fig5", "bank-a"),
    ("fig5", "bank-b"),
]


def campaign(figure, server, tick, **kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("units", 10)
    return run_campaign(
        CampaignSpec(
            figure=figure,
            crash_restart=(server, tick),
            **kwargs,
        )
    )


def randomized_tick(figure, server, units=10):
    """A seeded draw so 'randomized' stays reproducible per arm."""
    return random.Random(f"{figure}:{server}").randrange(1, units)


class TestSyncParity:
    @pytest.mark.parametrize("figure,server", ARMS)
    def test_recovered_run_matches_uninterrupted_run(self, figure, server):
        tick = randomized_tick(figure, server)
        report = campaign(figure, server, tick)
        assert report.unrecoverable == 0
        assert report.parity
        assert report.recovery_problems == []
        assert report.exit_code() == 0
        assert report.extras["crash restarts"] == 1
        # Identical balances: the finale audit matches the baseline's.
        assert report.finale == report.baseline_finale

    def test_accounting_restart_replays_the_ledger_wal(self):
        report = campaign("fig5", "bank-a", 6, units=12)
        assert report.exit_code() == 0
        assert report.extras["wal records replayed"] > 0

    def test_crash_restart_composes_with_message_loss(self):
        report = campaign(
            "fig5", "bank-b", 4, units=12, drop_rate=0.1
        )
        assert report.unrecoverable == 0
        assert report.parity
        assert report.recovery_problems == []
        assert report.finale == report.baseline_finale


class TestAioParity:
    @pytest.mark.parametrize(
        "figure,server", [("fig4", "files"), ("fig5", "bank-a")]
    )
    def test_aio_runtime_recovers_identically(self, figure, server):
        tick = randomized_tick(figure, server)
        report = campaign(figure, server, tick, runtime="aio")
        assert report.unrecoverable == 0
        assert report.parity
        assert report.recovery_problems == []
        assert report.exit_code() == 0
        assert report.finale == report.baseline_finale


class TestSpecValidation:
    def test_tick_beyond_campaign_rejected(self):
        with pytest.raises(ValueError):
            campaign("fig4", "files", 99, units=10)

    def test_server_without_restart_support_rejected(self):
        with pytest.raises(ValueError):
            campaign("fig4", "kdc", 3)

    def test_data_dir_keeps_the_store_inspectable(self, tmp_path):
        import os

        report = campaign(
            "fig4", "files", 3, data_dir=str(tmp_path)
        )
        assert report.exit_code() == 0
        assert os.path.exists(str(tmp_path / "files" / "wal.log"))


class TestFuzzCrashRestarts:
    def test_short_campaign_with_restarts_holds_invariants(self):
        report = run_fuzz(seed=11, episodes=80, banks=2, crash_restarts=3)
        assert report.ok, report.violations
        assert report.crash_restarts == 3
        assert report.wal_replayed > 0

    def test_restarts_compose_with_injected_faults(self):
        report = run_fuzz(
            seed=23, episodes=60, banks=2, faults=True, crash_restarts=2
        )
        assert report.ok, report.violations
        assert report.crash_restarts == 2

    def test_three_bank_topology_restarts_round_robin(self):
        report = run_fuzz(seed=5, episodes=60, banks=3, crash_restarts=3)
        assert report.ok, report.violations
        assert report.crash_restarts == 3

    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError):
            run_fuzz(seed=1, episodes=10, crash_restarts=-1)
