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

from repro.resil import chaos
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
            crash_restart=((server, tick),),
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
    """The variant mix with banks killed and WAL-recovered mid-campaign;
    the invariants hold the recovered books to the same standard, after
    every unit."""

    @staticmethod
    def restarted(report, count):
        assert report.extras["crash restarts"] == count
        assert report.extras["wal records replayed"] > 0

    def test_short_campaign_with_restarts_holds_invariants(self, fig5_mix):
        report = fig5_mix(
            seed=11,
            units=80,
            crash_restart=(("bank-a", 20), ("bank-b", 40), ("bank-c", 60)),
        )
        self.restarted(report, 3)

    def test_restarts_compose_with_injected_faults(self, fig5_mix):
        # Seed 23's 60 units draw no routed deposit; the next test
        # takes the hop under the same faults and restarts.
        report = fig5_mix(
            routed=False,
            seed=23,
            units=60,
            crash_restart=(("bank-a", 20), ("bank-b", 40)),
            drop_rate=0.04,
            response_drop_rate=0.03,
        )
        self.restarted(report, 2)
        assert report.stats["retries"] >= 1

    def test_routed_hop_composes_with_restarts_and_faults(self, fig5_mix):
        report = fig5_mix(
            seed=24,
            units=60,
            crash_restart=(("bank-a", 20), ("bank-b", 40)),
            drop_rate=0.04,
            response_drop_rate=0.03,
        )
        self.restarted(report, 2)
        assert report.stats["retries"] >= 1

    def test_three_bank_topology_restarts_round_robin(self, fig5_mix):
        report = fig5_mix(
            seed=5,
            units=60,
            crash_restart=(("bank-a", 15), ("bank-b", 30), ("bank-c", 45)),
        )
        self.restarted(report, 3)

    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(
                CampaignSpec(
                    "fig5-mix", units=10, crash_restart=(("bank-a", -1),)
                )
            )

    @pytest.mark.parametrize(
        "units,crash_restart",
        [
            (0, ()),
            (10, (("bank-a", 10),)),
            (10, (("bank-b", 3), ("bank-b", 3))),
        ],
        ids=["no-units", "tick-past-the-end", "duplicate-restart"],
    )
    def test_bad_campaign_rejected_before_any_work(
        self, monkeypatch, units, crash_restart
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("an arm ran")

        monkeypatch.setattr(chaos, "_run_arm", no_work)
        with pytest.raises(ValueError):
            run_campaign(
                CampaignSpec(
                    "fig5-mix", units=units, crash_restart=crash_restart
                )
            )

    def test_cli_crash_restart_is_repeatable(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "chaos",
                    "fig5-mix",
                    "--units",
                    "12",
                    "--crash-restart",
                    "bank-a:4",
                    "--crash-restart",
                    "bank-c:8",
                ]
            )
        out = capsys.readouterr().out
        assert exit_info.value.code == 0, out
        assert "bank-a before unit 4, bank-c before unit 8" in out
        assert "recovery: OK" in out
        assert "crash restarts ................. 2" in out

    @pytest.mark.parametrize(
        "value,message",
        [
            ("bank-a", "wants SERVER:TICK"),
            ("bank-a:x", "tick must be an integer"),
        ],
    )
    def test_cli_malformed_crash_restart_exits(self, value, message):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match=message):
            main(["chaos", "fig5-mix", "--crash-restart", value])
