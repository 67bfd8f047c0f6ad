"""Per-principal usage metering, attribution, pricing, and charging."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.clock import SimulatedClock
from repro.encoding.identifiers import PrincipalId
from repro.ledger import Account, Ledger, Posting, credit
from repro.net.message import ENVELOPE_KEYS, Message
from repro.obs import Telemetry
from repro.obs.trace import Span
from repro.obs.usage import (
    QuantileDigest,
    REVENUE_ACCOUNT,
    Tariff,
    UNATTRIBUTED,
    UsageMeter,
    UsageRecord,
    post_usage_charges,
)
from repro.testbed import Realm
from repro.workloads import load
from repro.workloads.load import SCENARIOS, run_figure

ALICE = PrincipalId("alice")
BOB = PrincipalId("bob")


def sent(trace_id, source, destination, msg_type, request, response=None):
    """A finished ``net.send`` span, as ``Network.send`` leaves it."""
    span = Span(
        span_id=1,
        parent_id=None,
        run_id=None,
        name="net.send",
        start=0.0,
        attributes=dict(
            source=source, destination=destination, msg_type=msg_type
        ),
        trace_id=trace_id,
    )
    span.set(request_bytes=request)
    if response is not None:
        span.set(response_bytes=response)
    span.end = 0.0
    return span


def metered_figure(figure):
    telemetry = Telemetry(capture_crypto=True, meter_usage=True)
    try:
        run_figure(figure, telemetry)
    finally:
        telemetry.release_crypto()
    return telemetry


class TestQuantileDigest:
    def test_quantile_answers_bucket_upper_bound(self):
        d = QuantileDigest(low=0.001, high=10.0, bins_per_decade=1)
        for value in (0.002, 0.002, 0.002, 5.0):
            d.observe(value)
        # 3 of 4 samples land in the (0.001, 0.01] bucket.
        assert d.quantile(0.5) == pytest.approx(0.01)
        assert d.quantile(0.75) == pytest.approx(0.01)
        assert d.quantile(1.0) == pytest.approx(10.0)

    def test_empty_digest_answers_zero(self):
        assert QuantileDigest().quantile(0.99) == 0.0

    def test_overflow_clamps_to_top_bound(self):
        d = QuantileDigest(low=0.001, high=1.0, bins_per_decade=1)
        d.observe(50.0)
        assert d.quantile(0.5) == d.bounds[-1]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuantileDigest(low=0.0)
        with pytest.raises(ValueError):
            QuantileDigest().quantile(0.0)
        with pytest.raises(ValueError):
            QuantileDigest().quantile(1.5)


class TestUsageRecord:
    def test_merge_and_bytes_total(self):
        a = UsageRecord(messages=1, bytes_sent=10, bytes_received=5)
        b = UsageRecord(messages=2, bytes_sent=1, retries=3)
        a.merge(b)
        assert a.messages == 3
        assert a.bytes_total == 16
        assert a.retries == 3

    def test_to_dict_hides_cpu_by_default(self):
        record = UsageRecord(crypto_ops=2, crypto_seconds=0.5)
        assert "crypto_seconds" not in record.to_dict()
        assert record.to_dict(include_cpu=True)["crypto_ops"] == 2


class TestAttribution:
    def test_request_leg_registers_the_trace_owner(self):
        meter = UsageMeter()
        meter.on_span_finish(sent("t1", "alice@R", "files@R", "read", 100))
        assert meter.owner_of("t1") == ("alice@R", "read")
        # A later hop in the same trace bills to the registered owner.
        meter.on_span_finish(sent("t1", "files@R", "bank@R", "debit", 50))
        assert meter.records[("alice@R", "read")].bytes_sent == 150
        assert ("files@R", "debit") not in meter.records

    def test_nested_hop_finishing_first_bills_the_outer_sender(self):
        # The hop's span finishes inside the first request's, before that
        # request registers an owner: the open send pays for it.
        telemetry = Telemetry(meter_usage=True)
        meter = telemetry.usage
        with telemetry.span(
            "net.send", source="alice@R", destination="files@R",
            msg_type="read",
        ) as outer:
            outer.set(request_bytes=100)
            with telemetry.span(
                "net.send", source="files@R", destination="bank@R",
                msg_type="debit",
            ) as hop:
                hop.set(request_bytes=50, response_bytes=10)
            assert meter.owner_of(outer.trace_id) is None
            outer.set(response_bytes=40)
        assert meter.owner_of(outer.trace_id) == ("alice@R", "read")
        record = meter.records[("alice@R", "read")]
        assert (record.messages, record.bytes_sent) == (4, 150)
        assert record.bytes_received == 50
        assert set(meter.records) == {("alice@R", "read")}

    def test_response_leg_bills_to_the_owner(self):
        meter = UsageMeter()
        meter.on_span_finish(
            sent("t1", "alice@R", "files@R", "read", 100, response=40)
        )
        record = meter.records[("alice@R", "read")]
        assert record.bytes_sent == 100
        assert record.bytes_received == 40
        assert record.messages == 2

    def test_untraced_response_falls_back_to_destination(self):
        meter = UsageMeter()
        meter.on_span_finish(
            sent(None, "alice@R", "files@R", "read", 10, response=40)
        )
        assert meter.records[("alice@R", "read")].bytes_received == 40
        assert meter.owner_of(None) is None

    def test_owner_table_is_bounded_fifo(self):
        meter = UsageMeter(max_traces=2)
        for i in range(3):
            meter.on_span_finish(
                sent(f"t{i}", "alice@R", "files@R", "read", 1)
            )
        assert meter.owner_of("t0") is None
        assert meter.owner_of("t2") == ("alice@R", "read")

    def test_crypto_outside_any_trace_is_unattributed(self):
        meter = UsageMeter()
        meter.on_crypto("schnorr", "verify", 0.001, True)
        record = meter.records[(UNATTRIBUTED, UNATTRIBUTED)]
        assert record.crypto_ops == 1

    def test_crypto_resolves_span_principal_attrs(self):
        meter = UsageMeter()

        class FakeSpan:
            name = "verify.chain"
            attributes = {"grantor": "alice@R", "operation": "verify"}

        meter.on_crypto(
            "schnorr", "verify", 0.001, True, trace_id=None,
            spans=(FakeSpan(),),
        )
        assert meter.records[("alice@R", "verify")].crypto_ops == 1

    def test_fig5_clearing_hop_bills_the_principals_not_the_banks(self):
        telemetry = metered_figure("fig5")
        records = telemetry.usage.records
        # Both deposits (warm-up and measured) bill p0 for E1 and for the
        # E2 hop inside it: two message pairs each.
        assert records[("p0@REPRO.ORG", "request")].messages == 8
        # A bank is billed only for its own Kerberos provisioning (its
        # session with its peer bank), never for a request.
        banks = {op for p, op in records if p.startswith("bank-")}
        assert banks <= {"as-request", "tgs-request", "ap-request"}


class TestReconciliation:
    """The acceptance bar: metered totals equal the network's counters."""

    @pytest.mark.parametrize("figure", sorted(SCENARIOS))
    def test_metered_totals_match_network_counters(self, figure):
        telemetry = metered_figure(figure)
        meter = telemetry.usage
        messages = telemetry.metrics.counter("network_messages_total").total()
        wire_bytes = telemetry.metrics.counter("network_bytes_total").total()
        assert meter.total_messages() == messages > 0
        assert meter.total_bytes() == wire_bytes
        assert meter.reconcile(messages, wire_bytes)[0]

    def test_empty_meter_does_not_reconcile(self):
        ok, verdict = UsageMeter().reconcile(0, 0)
        assert not ok
        assert verdict.endswith("-> EMPTY")

    def test_usage_command_fails_when_nothing_was_metered(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            load, "run_figure", lambda name, telemetry=None: telemetry
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["usage", "fig4"])
        assert exit_info.value.code == 1
        out = capsys.readouterr().out
        assert "reconciliation: metered 0 messages" in out
        assert "-> ok" not in out

    def test_per_record_bytes_sum_to_the_total(self):
        meter = metered_figure("fig5").usage
        assert (
            sum(r.bytes_total for r in meter.records.values())
            == meter.total_bytes()
        )


class TestSpanFinishFeeds:
    def _span(self, name, trace_id=None, events=(), duration=0.0):
        class FakeEvent:
            def __init__(self, event_name):
                self.name = event_name

        class FakeSpan:
            pass

        span = FakeSpan()
        span.name = name
        span.span_id = 1
        span.parent_id = None
        span.trace_id = trace_id
        span.duration = duration
        span.attributes = {}
        span.events = [FakeEvent(e) for e in events]
        return span

    def test_retry_and_degraded_events_are_counted(self):
        meter = UsageMeter()
        meter.on_span_finish(sent("t1", "alice@R", "files@R", "read", 10))
        span = self._span(
            "resil.send",
            trace_id="t1",
            events=("resil.retry", "resil.retry", "degraded.grant"),
        )
        meter.on_span_finish(span)
        record = meter.records[("alice@R", "read")]
        assert record.retries == 2
        assert record.degraded_grants == 1

    def test_net_send_duration_lands_in_the_owner_digest(self):
        meter = UsageMeter()
        span = sent("t1", "alice@R", "files@R", "read", 10)
        span.end = span.start + 0.01
        meter.on_span_finish(span)
        assert meter.digests["alice@R"].count == 1
        p50, p95, p99 = meter.percentiles("alice@R")
        assert p50 >= 0.01
        assert p50 <= p95 <= p99

    def test_handlers_bill_self_time_and_deduped_ones_nothing(
        self, monkeypatch
    ):
        ticks = iter([0.0, 1.0, 5.0, 6.0, 6.5, 10.0])
        monkeypatch.setattr(
            "repro.obs.trace.time.perf_counter", lambda: next(ticks)
        )
        telemetry = Telemetry(meter_usage=True)
        with telemetry.span(
            "net.send", source="alice@R", destination="bank@R",
            msg_type="deposit",
        ):  # perf 0.0 .. 10.0
            with telemetry.span("rpc.handle", service="bank@R"):  # 1 .. 6.5
                with telemetry.span("rpc.handle", service="peer@R"):  # 5 .. 6
                    pass
        record = telemetry.usage.records[("alice@R", "deposit")]
        # Outer handler 5.5 s less its nested 1 s, plus the nested 1 s.
        assert record.handler_seconds == pytest.approx(5.5)
        ticks = iter([0.0, 3.0])
        with telemetry.span("rpc.handle", service="bank@R") as span:
            span.set(deduped=True)
        assert set(telemetry.usage.records) == {("alice@R", "deposit")}

    def test_unknown_principal_percentiles_are_zero(self):
        assert UsageMeter().percentiles("nobody@R") == (0.0, 0.0, 0.0)


class TestDeterminism:
    """Same seed => byte-identical default report (the CPU columns are
    real measurements and are excluded unless asked for)."""

    def test_fig5_report_is_byte_identical_across_runs(self):
        first = metered_figure("fig5").usage
        second = metered_figure("fig5").usage
        assert first.report() == second.report()
        assert first.to_json() == second.to_json()

    def test_include_cpu_adds_the_measured_columns(self):
        meter = metered_figure("fig5").usage
        assert "crypto(ms)" not in meter.report()
        assert "crypto(ms)" in meter.report(include_cpu=True)
        dump = meter.to_json(include_cpu=True)
        assert any(
            "crypto_seconds" in entry for entry in dump["records"]
        )

    def test_report_filters(self):
        meter = metered_figure("fig5").usage
        assert "(unattributed)" in meter.report()
        only = meter.report(principal="p0@REPRO.ORG")
        assert "(unattributed)" not in only
        top = meter.report(top=1)
        # header + separator + one row + totals line
        assert len(top.splitlines()) == 4


class TestEnvelopeExclusion:
    """Satellite: envelope-only fields never enter metered byte counts."""

    def test_rid_is_excluded_from_wire_size(self):
        plain = Message(ALICE, BOB, "ping", {"x": 1})
        stamped = Message(ALICE, BOB, "ping", {"x": 1, "_rid": "r-123"})
        assert "_rid" in ENVELOPE_KEYS
        assert stamped.wire_size() == plain.wire_size()

    def test_traceparent_is_excluded_from_wire_size(self):
        plain = Message(ALICE, BOB, "ping", {"x": 1})
        traced = Message(
            ALICE, BOB, "ping", {"x": 1},
            traceparent="00-" + "a" * 32 + "-" + "b" * 16 + "-01",
        )
        assert traced.wire_size() == plain.wire_size()

    def test_metered_bytes_agree_with_wire_size_under_resilience(self):
        # End to end: a resilient (rid-stamping) realm's metered bytes
        # still reconcile exactly with the byte counter.
        telemetry = Telemetry(meter_usage=True)
        realm = Realm(seed=b"usage-envelope", telemetry=telemetry)
        server = realm.accounting_server("envelope-bank")
        server.create_account("alice", ALICE, {"credits": 5})
        assert (
            telemetry.usage.total_bytes()
            == telemetry.metrics.counter("network_bytes_total").total()
        )


class TestTariff:
    def test_price_is_exact_integer_arithmetic(self):
        tariff = Tariff(
            per_message=1,
            per_kib=2,
            per_crypto_op=3,
            per_retry=4,
            per_degraded_grant=5,
        )
        record = UsageRecord(
            messages=3,
            bytes_sent=1024,
            bytes_received=1,  # 1025 bytes -> 2 KiB, rounded up
            crypto_ops=2,
            crypto_seconds=0.0021,
            handler_seconds=0.0005,
            retries=2,
            degraded_grants=1,
        )
        assert tariff.price(record) == 3 + 2 * 2 + 2 * 3 + 2 * 4 + 5

    def test_measured_seconds_do_not_move_the_price(self):
        quick = UsageRecord(messages=2, bytes_sent=900, crypto_ops=4)
        slow = UsageRecord(
            messages=2,
            bytes_sent=900,
            crypto_ops=4,
            crypto_seconds=1.5,
            handler_seconds=0.25,
        )
        assert Tariff().price(slow) == Tariff().price(quick) > 0

    def test_empty_record_costs_nothing(self):
        assert Tariff().price(UsageRecord()) == 0

    def test_two_processes_post_identical_charges(self, tmp_path):
        charges = []
        for run in ("first", "second"):
            out = tmp_path / f"{run}.json"
            result = subprocess.run(
                [sys.executable, "-m", "repro", "usage", "fig5",
                 "--charge", "--json", str(out)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            charges.append(json.loads(out.read_text())["charges"])
        assert charges[0] == charges[1]
        assert {c["principal"] for c in charges[0]} >= {"bank-b@REPRO.ORG"}


class TestChargePosting:
    def _funded_ledger(self, meter, tariff):
        accounts = {
            name: Account(name=name, owner=ALICE)
            for name in list(meter.by_principal()) + [REVENUE_ACCOUNT]
        }
        ledger = Ledger(accounts, SimulatedClock(0.0))
        for principal, record in meter.by_principal().items():
            amount = tariff.price(record)
            if amount > 0:
                ledger.post(
                    Posting(
                        legs=(
                            credit(principal, tariff.currency, amount),
                        ),
                        kind="mint",
                        description="fund",
                    )
                )
        return ledger

    def _meter(self):
        meter = UsageMeter()
        meter.on_span_finish(sent("t1", "alice@R", "files@R", "read", 2048))
        meter.on_span_finish(sent("t2", "bob@R", "files@R", "write", 100))
        return meter

    def test_charges_are_conserved_transfers(self):
        meter = self._meter()
        tariff = Tariff()
        ledger = self._funded_ledger(meter, tariff)
        minted_before = dict(ledger.expected_totals())
        charges = post_usage_charges(ledger, meter, tariff)
        assert {c.principal for c in charges} == {"alice@R", "bob@R"}
        # Charging moved funds but created none.
        assert ledger.expected_totals() == minted_before
        assert ledger.audit_discrepancies() == []
        assert sum(c.amount for c in charges) > 0

    def test_period_makes_charging_idempotent(self):
        meter = self._meter()
        tariff = Tariff()
        ledger = self._funded_ledger(meter, tariff)
        first = post_usage_charges(ledger, meter, tariff, period="2026-08")
        again = post_usage_charges(ledger, meter, tariff, period="2026-08")
        assert [c.posting_id for c in first] == [
            c.posting_id for c in again
        ]
        # Revenue accrued once, not twice.
        assert ledger.audit_discrepancies() == []

    def test_accounting_server_charges_and_conserves(self):
        telemetry = metered_figure("fig5")
        realm = Realm(seed=b"usage-bank")
        bank = realm.accounting_server("charge-bank")
        charges = bank.charge_usage(telemetry.usage, period="fig5")
        assert charges
        assert REVENUE_ACCOUNT in bank.accounts
        revenue = bank.accounts[REVENUE_ACCOUNT].balance("credits")
        assert revenue == sum(c.amount for c in charges)
        # Each provisioned account drains exactly to zero.
        for charge in charges:
            assert bank.accounts[charge.principal].balance("credits") == 0
        assert bank.ledger.audit_discrepancies() == []

    def test_accounting_server_recharge_is_idempotent(self):
        telemetry = metered_figure("fig5")
        realm = Realm(seed=b"usage-bank-2")
        bank = realm.accounting_server("charge-bank")
        first = bank.charge_usage(telemetry.usage, period="fig5")
        again = bank.charge_usage(telemetry.usage, period="fig5")
        assert [c.posting_id for c in first] == [
            c.posting_id for c in again
        ]
        assert bank.ledger.audit_discrepancies() == []


class TestTelemetryWiring:
    def test_meter_usage_flag_attaches_and_mirrors(self):
        telemetry = metered_figure("fig3")
        assert telemetry.usage is not None
        assert (
            telemetry.metrics.counter("usage.messages_total").total()
            == telemetry.usage.total_messages()
        )
        assert (
            telemetry.metrics.counter("usage.bytes_total").total()
            == telemetry.usage.total_bytes()
        )

    def test_default_telemetry_has_no_meter(self):
        assert Telemetry().usage is None

    def test_unmetered_trace_shape_is_unchanged(self):
        # op.exec spans exist only under metering, so unmetered runs'
        # span trees stay exactly as the seed recorded them.
        metered = metered_figure("fig5")
        plain = Telemetry(capture_crypto=True)
        try:
            run_figure("fig5", plain)
        finally:
            plain.release_crypto()
        assert not plain.tracer.find("op.exec")
        assert metered.tracer.find("op.exec")
