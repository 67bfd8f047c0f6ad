"""The concurrent load generator: scenarios, invariants, and the CLI.

Every scenario must complete cleanly in both delivery modes, report
ordered latency percentiles, and hold its post-run invariants (audit
counts, fig5 conservation, usage reconciliation).  The aio engine must
actually overlap principals (``peak_in_flight``), and the ``python -m
repro load`` entry point must exit 0 with greppable ``conservation:`` /
``reconciliation:`` lines — the contract the CI load-smoke job relies
on.
"""

import json

import pytest

from repro.workloads import load
from repro.workloads.load import SCENARIOS, LoadConfig, run_load


def small_run(scenario: str, mode: str, **overrides):
    config = dict(
        scenario=scenario,
        principals=4,
        ops=2,
        concurrency=4,
        mode=mode,
        seed=3,
        base_latency=0.0,
        jitter=0.0,
    )
    config.update(overrides)
    return run_load(LoadConfig(**config))


def billed(monkeypatch, scenario, mode):
    """``principal -> (messages, bytes)`` the usage meter billed over a
    metered six-principal run of ``scenario``."""
    realms = []
    build = load._build_realm

    def capture(config):
        realms.append(build(config))
        return realms[-1]

    monkeypatch.setattr(load, "_build_realm", capture)
    report = small_run(
        scenario, mode, principals=6, ops=3, concurrency=6, meter_usage=True
    )
    assert report.problems == []
    usage = realms[0].telemetry.usage
    return {
        principal: (record.messages, record.bytes_total)
        for principal, record in usage.by_principal().items()
    }


class TestScenarios:
    @pytest.mark.parametrize("mode", ["sync", "aio"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scenario_completes_cleanly(self, scenario, mode):
        report = small_run(scenario, mode)
        assert report.ops_ok == 4 * 2
        assert report.ops_failed == 0
        assert report.problems == []
        assert set(report.percentiles_ms) == {"p50", "p95", "p99"}
        assert (
            report.percentiles_ms["p50"]
            <= report.percentiles_ms["p95"]
            <= report.percentiles_ms["p99"]
        )

    def test_aio_overlaps_principals_sync_serializes_them(self):
        aio = small_run("echo", "aio", principals=24, concurrency=8)
        sync = small_run("echo", "sync", principals=24)
        # Every principal stream starts before the first op resolves, so
        # the peak equals the population; the sync driver is one thread.
        assert aio.peak_in_flight == 24
        assert sync.peak_in_flight == 1
        assert aio.runtime["queued"] == aio.ops_ok
        assert sync.runtime == {}

    def test_identical_seeds_give_identical_sync_wire_traffic(self):
        first = small_run("fig4", "sync")
        second = small_run("fig4", "sync")
        assert (first.messages, first.bytes, first.ops_ok) == (
            second.messages,
            second.bytes,
            second.ops_ok,
        )

    def test_usage_metering_reconciles_with_wire_counters(self):
        report = small_run("fig3", "aio", meter_usage=True)
        assert report.problems == []
        assert report.reconciliation is not None
        assert report.reconciliation.endswith("-> ok")

    @pytest.mark.parametrize("scenario", ["fig3", "fig5", "pk-verify"])
    def test_aio_usage_bills_each_principal_its_own_ops(
        self, scenario, monkeypatch
    ):
        # Concurrent client threads share one tracer; a span one of them
        # opens around its op must not adopt another principal's
        # requests.  The sync run, one op at a time, is the truth.
        sync = billed(monkeypatch, scenario, "sync")
        assert {f"p{i}@REPRO.ORG" for i in range(6)} <= set(sync)
        assert billed(monkeypatch, scenario, "aio") == sync

    def test_lazy_peer_session_is_billed_once_to_one_depositor(
        self, monkeypatch
    ):
        # Unprovisioned, bank B opens its session at bank A inside the
        # first deposit to reach it: the trace's first owner pays for it.
        # Under aio which depositor is first is up to the scheduler, so
        # pin only that exactly one pays, once, the same on both runtimes.
        class LazyPeers(load.Fig5Scenario):
            def setup(self, realm, config):
                return {
                    key: realm.accounting_server(name)
                    for key, name in self.BANKS
                }

        warm = billed(monkeypatch, "fig5", "sync")
        monkeypatch.setitem(SCENARIOS, "fig5", LazyPeers)
        session_costs = set()
        for mode in ("sync", "aio"):
            lazy = billed(monkeypatch, "fig5", mode)
            assert set(lazy) == set(warm) - {"bank-b@REPRO.ORG"}
            extra = {
                p: (lazy[p][0] - warm[p][0], lazy[p][1] - warm[p][1])
                for p in lazy
                if lazy[p] != warm[p]
            }
            assert len(extra) == 1 and next(iter(extra)).startswith("p")
            session_costs.add(next(iter(extra.values())))
        # Billed once: the depositor pays what provisioning bills bank B.
        assert session_costs == {warm["bank-b@REPRO.ORG"]}

    def test_fig5_reports_conserved_balances(self):
        report = small_run("fig5", "aio", principals=3)
        assert report.problems == []
        # Every minted dollar is still in a non-settlement account.
        assert report.extras["balances"] == {"dollars": 3 * 10_000}

    def test_render_is_greppable(self):
        report = small_run("echo", "aio")
        text = report.render()
        assert "conservation: ok" in text
        assert "throughput" in text
        assert "p95" in text

    def test_report_round_trips_through_json(self):
        report = small_run("echo", "sync")
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["scenario"] == "echo"
        assert payload["ops_ok"] == report.ops_ok
        assert payload["problems"] == []

    def test_unknown_scenario_and_bad_sizes_are_rejected(self):
        with pytest.raises(ValueError):
            run_load(LoadConfig(scenario="fig9"))
        with pytest.raises(ValueError):
            run_load(LoadConfig(scenario="echo", principals=0))


class TestCli:
    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        return excinfo.value.code, capsys.readouterr().out

    def test_load_command_exits_zero_and_prints_invariants(
        self, capsys, tmp_path
    ):
        out_path = tmp_path / "load.json"
        code, out = self.run_cli(
            [
                "load",
                "echo",
                "--principals",
                "16",
                "--ops",
                "2",
                "--concurrency",
                "8",
                "--usage",
                "--json",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert "conservation: ok" in out
        assert "reconciliation:" in out and "-> ok" in out
        payload = json.loads(out_path.read_text())
        assert payload["ops_ok"] == 32

    def test_load_command_sync_mode(self, capsys):
        code, out = self.run_cli(
            [
                "load",
                "fig1",
                "--mode",
                "sync",
                "--principals",
                "4",
                "--ops",
                "2",
            ],
            capsys,
        )
        assert code == 0
        assert "mode=sync" in out
        assert "conservation: ok" in out
