"""Chaos-parity: faulted campaigns must reach fault-free outcomes.

Each campaign runs a figure workload twice on identically-seeded realms —
once healthy, once under injected faults — and compares application-level
outcomes unit by unit.  With retries on, the resilient fabric must turn
every fault into latency, never divergence; with retries off, the same
faults must visibly lose work (the control arm proves the campaigns
actually bite).
"""

import ast
import inspect

import pytest

from repro.resil import chaos
from repro.resil.chaos import CampaignSpec, run_campaign
from repro.workloads.load import SCENARIOS


def campaign(**kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("units", 12)
    return run_campaign(CampaignSpec(**kwargs))


class TestRecoveryParity:
    def test_fig4_recovers_from_request_loss(self):
        report = campaign(figure="fig4", drop_rate=0.2)
        assert report.unrecoverable == 0
        assert report.parity
        assert report.exit_code() == 0
        assert report.stats["retries"] >= 1

    def test_fig5_checks_clear_exactly_once_despite_lost_replies(self):
        report = campaign(
            figure="fig5", drop_rate=0.1, response_drop_rate=0.15
        )
        assert report.unrecoverable == 0
        assert report.parity
        # Lost replies were resent and deduplicated — the balances prove
        # no check cleared twice (parity covers the finale balances).
        assert report.dedupe_hits >= 1
        assert report.finale == report.baseline_finale

    def test_fig1_offline_verification_survives_kdc_loss(self):
        report = campaign(figure="fig1", drop_rate=0.2, kill_primary=True)
        assert report.unrecoverable == 0
        assert report.parity
        assert report.stats["failovers"] >= 1

    def test_without_retries_the_same_faults_lose_work(self):
        resilient = campaign(figure="fig4", drop_rate=0.2)
        control = campaign(figure="fig4", drop_rate=0.2, retry=False)
        assert resilient.unrecoverable == 0
        assert control.unrecoverable >= 1
        # The control arm never fails the campaign: it is the baseline
        # that shows what the resilience layer is for.
        assert control.exit_code() == 0


class TestDegradedCampaign:
    def test_fig3_outage_serves_cached_grants_flagged_degraded(self):
        report = campaign(
            figure="fig3", drop_rate=0.1, outage=(5.0, 400.0)
        )
        assert report.unrecoverable == 0
        assert report.parity
        assert report.degraded_client >= 1
        assert report.degraded_server >= 1
        assert report.stats["breaker_opens"] >= 1

    def test_fig3_without_faults_never_degrades(self):
        report = campaign(figure="fig3")
        assert report.unrecoverable == 0
        assert report.degraded_client == 0
        assert report.degraded_server == 0


class TestOneDefinitionPerFigure:
    """Drift guard: a campaign runs the scenario the benchmark measures."""

    def test_every_chaos_figure_is_the_load_scenario(self):
        for figure in chaos.FIGURES:
            assert isinstance(chaos.scenario_for(figure), SCENARIOS[figure])

    def test_chaos_deploys_nothing_itself(self):
        calls = {
            ast.unparse(node.func)
            for node in ast.walk(ast.parse(inspect.getsource(chaos)))
            if isinstance(node, ast.Call)
        }
        # Provision, warm-up op and span clearing: the step run_figure
        # shares (load.warm_up calls load.provision).
        assert "warm_up" in calls
        for forbidden in (
            "realm.user",
            "realm.file_server",
            "realm.accounting_server",
            "grant_via_credentials",
            "endorse",
        ):
            assert not any(call.endswith(forbidden) for call in calls)


class TestSpecValidation:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignSpec(figure="fig9"))

    def test_cli_rejects_a_figure_chaos_cannot_run(self, capsys):
        """pk-verify is a traced scenario but not a campaign: argparse
        refuses it with a usage error instead of a traceback out of
        run_campaign."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "pk-verify"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'pk-verify'" in capsys.readouterr().err

    def test_fault_description(self):
        spec = CampaignSpec(
            figure="fig4",
            drop_rate=0.2,
            response_drop_rate=0.1,
            outage=(5.0, 65.0),
            kill_primary=True,
        )
        text = spec.describe_faults()
        assert "request-drop 20%" in text
        assert "response-drop 10%" in text
        assert "outage" in text
        assert "killed" in text
        assert CampaignSpec(figure="fig4").describe_faults() == "none"
