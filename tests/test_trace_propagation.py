"""End-to-end trace correlation: wire stamping, retries, postings, CLI.

One logical request must stay one trace across the whole fabric: the
sending span's context rides the message envelope, retried attempts
become child spans of the same trace, ledger postings record the trace
that caused them, and histogram exemplars point back at it.
"""

import pytest

from repro.clock import SimulatedClock
from repro.crypto.rng import Rng
from repro.encoding.identifiers import PrincipalId
from repro.net import Network
from repro.net.message import Message
from repro.net.service import Service
from repro.obs.context import TraceContext
from repro.obs.telemetry import NO_TELEMETRY, Telemetry
from repro.resil import ResilientChannel, ResponseCache, RetryPolicy, Timeout

ALICE = PrincipalId("alice")
SERVER = PrincipalId("server")
REPLICA = PrincipalId("server-2")


@pytest.fixture
def clock():
    return SimulatedClock(1000.0)


@pytest.fixture
def rng():
    return Rng(seed=b"trace-propagation")


@pytest.fixture
def telemetry(clock):
    return Telemetry(clock=clock)


@pytest.fixture
def network(clock, rng, telemetry):
    return Network(clock, rng=rng, telemetry=telemetry)


class PingService(Service):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0
        self.seen_traceparents = []

    def op_ping(self, message: Message) -> dict:
        self.calls += 1
        self.seen_traceparents.append(message.traceparent)
        return {"pong": self.calls}


class TestWireStamping:
    def test_send_stamps_the_net_send_spans_context(
        self, network, clock, telemetry
    ):
        service = PingService(SERVER, network, clock)
        with telemetry.span("client.call") as caller:
            network.send(ALICE, SERVER, "ping", {})
        (header,) = service.seen_traceparents
        context = TraceContext.parse(header)
        assert context.trace_id == caller.trace_id
        (net_send,) = telemetry.tracer.find("net.send")
        assert context.span_id == net_send.hex_id
        # The receiver's handler span joined the same trace.
        (handle,) = telemetry.tracer.find("rpc.handle")
        assert handle.trace_id == caller.trace_id

    def test_null_telemetry_stamps_nothing(self, clock, rng):
        network = Network(clock, rng=rng)  # NO_TELEMETRY default
        service = PingService(SERVER, network, clock)
        network.send(ALICE, SERVER, "ping", {})
        assert service.seen_traceparents == [None]

    def test_traceparent_is_envelope_only_no_wire_bytes(self):
        plain = Message(
            source=ALICE, destination=SERVER, msg_type="ping",
            payload={"x": 1},
        )
        stamped = Message(
            source=ALICE, destination=SERVER, msg_type="ping",
            payload={"x": 1},
            traceparent="00-" + "a" * 32 + "-" + "b" * 16 + "-01",
        )
        assert stamped.wire_size() == plain.wire_size()

    def test_reply_carries_the_request_context(self):
        header = "00-" + "a" * 32 + "-" + "b" * 16 + "-01"
        request = Message(
            source=ALICE, destination=SERVER, msg_type="ping",
            payload={}, traceparent=header,
        )
        assert request.reply({"ok": True}).traceparent == header

    def test_cross_tracer_service_adopts_the_wire_context(
        self, network, clock, telemetry
    ):
        # A service instrumented by a *different* tracer — another realm
        # in a federation — must still join the sender's trace.
        their_telemetry = Telemetry(clock=clock)
        PingService(SERVER, network, clock, telemetry=their_telemetry)
        with telemetry.span("client.call") as caller:
            network.send(ALICE, SERVER, "ping", {})
        (handle,) = their_telemetry.tracer.find("rpc.handle")
        assert handle.trace_id == caller.trace_id
        assert handle.parent_id is None  # no local parent over there
        (net_send,) = telemetry.tracer.find("net.send")
        assert handle.remote_parent == net_send.hex_id


class TestResilientAttempts:
    def _channel(self, network, **kwargs):
        kwargs.setdefault("timeout", Timeout(seconds=1.0))
        kwargs.setdefault("jitter", 0.0)
        return ResilientChannel(network, policy=RetryPolicy(**kwargs))

    def test_retries_are_child_spans_of_one_trace(
        self, network, clock, telemetry
    ):
        channel = self._channel(network, max_attempts=6)
        PingService(SERVER, network, clock)
        network.blackhole(SERVER, until=clock.now() + 2.5)
        channel.send(ALICE, SERVER, "ping", {})

        (send_span,) = telemetry.tracer.find("resil.send")
        attempts = telemetry.tracer.find("resil.attempt")
        assert len(attempts) >= 2
        assert {a.trace_id for a in attempts} == {send_span.trace_id}
        assert all(a.parent_id == send_span.span_id for a in attempts)
        numbers = [a.attributes["attempt"] for a in attempts]
        assert numbers == list(range(1, len(attempts) + 1))
        # Lost attempts say so (and record the post-failure breaker
        # state); the final one succeeded.
        for lost in attempts[:-1]:
            assert lost.attributes["outcome"] == "lost"
            assert lost.attributes["reason"] == "MessageDroppedError"
            assert "breaker" in lost.attributes
        assert attempts[-1].attributes["outcome"] == "ok"
        # Every wire send of the resend sequence shares the trace too.
        sends = telemetry.tracer.find("net.send")
        assert {s.trace_id for s in sends} == {send_span.trace_id}

    def test_failover_attempt_names_the_replica(
        self, network, clock, telemetry
    ):
        channel = self._channel(network, max_attempts=6)
        cache = ResponseCache(clock)
        PingService(SERVER, network, clock, dedupe=cache)
        PingService(REPLICA, network, clock, dedupe=cache, endpoint=REPLICA)
        channel.add_replica(SERVER, REPLICA)
        network.blackhole(SERVER)
        channel.send(ALICE, SERVER, "ping", {})

        attempts = telemetry.tracer.find("resil.attempt")
        flipped = [a for a in attempts if a.attributes.get("failover")]
        assert flipped
        assert flipped[-1].attributes["endpoint"] == str(REPLICA)
        assert flipped[-1].attributes["outcome"] == "ok"

    def test_message_trace_marks_resends_and_failovers(
        self, network, clock, telemetry
    ):
        channel = self._channel(network, max_attempts=6)
        PingService(SERVER, network, clock)
        network.blackhole(SERVER, until=clock.now() + 2.5)
        channel.send(ALICE, SERVER, "ping", {})
        trace_text = telemetry.render_message_trace()
        assert "[attempt 2" in trace_text


class TestLedgerCorrelation:
    def test_postings_record_the_trace_that_caused_them(self):
        from repro.testbed import Realm

        telemetry = Telemetry()
        realm = Realm(seed=b"trace-ledger", telemetry=telemetry)
        payor = realm.user("payor")
        payee = realm.user("payee")
        bank = realm.accounting_server("bank")
        bank.create_account("payor", payor.principal, {"dollars": 100})
        bank.create_account("payee", payee.principal)
        payor_client = payor.accounting_client(bank.principal)
        payee_client = payee.accounting_client(bank.principal)

        with telemetry.run("clearing") as run_span:
            check = payor_client.write_check(
                "payor", payee.principal, "dollars", 5
            )
            payee_client.deposit_check(check, "payee")

        in_trace = [
            r
            for r in bank.ledger.journal
            if r.trace_id == run_span.trace_id
        ]
        assert in_trace, "no posting recorded the clearing trace"
        # The span events name the same postings, in causal position.
        events = [
            e
            for s in telemetry.tracer.spans_in_trace(run_span.trace_id)
            for e in s.events
            if e.name == "ledger.post"
        ]
        assert {e.attributes["posting_id"] for e in events} >= {
            r.posting_id for r in in_trace
        }

    def test_untraced_postings_have_no_trace_id(self):
        from repro.testbed import Realm

        realm = Realm(seed=b"trace-ledger-off")
        user = realm.user("payor")
        bank = realm.accounting_server("bank")
        bank.create_account("payor", user.principal, {"dollars": 100})
        bank.create_account("other", realm.user("other").principal)
        client = user.accounting_client(bank.principal)
        client.transfer("payor", "other", "dollars", 1)
        assert all(r.trace_id is None for r in bank.ledger.journal)


class TestExemplars:
    def test_observe_attaches_the_current_trace(self, telemetry):
        with telemetry.span("work") as span:
            telemetry.observe("lat", 0.05, buckets=(0.1, 1.0))
        text = telemetry.prometheus()
        assert f'# {{trace_id="{span.trace_id}"}} 0.05' in text

    def test_no_exemplar_outside_any_span(self, telemetry):
        telemetry.observe("lat", 0.05, buckets=(0.1, 1.0))
        assert "trace_id=" not in telemetry.prometheus()


class TestForensicAutoDump:
    def test_failing_chaos_campaign_dumps_offending_traces(self):
        from repro.resil.chaos import CampaignSpec, run_campaign

        # 90% request loss overwhelms even the campaign retry budget:
        # some units must fail, and each failure must arrive with its
        # causal trace attached.
        spec = CampaignSpec(figure="fig1", seed=7, units=6, drop_rate=0.9)
        report = run_campaign(spec)
        assert report.exit_code() != 0
        failed = [u for u in report.units if not u.ok]
        assert failed
        assert all(len(u.trace_id) == 32 for u in failed)
        # The baseline realm runs untraced.
        assert all(u.trace_id == "" for u in report.baseline_units)
        assert report.forensics
        rendered = report.render()
        assert "forensic traces" in rendered
        assert failed[0].trace_id in report.forensics[0]

    def test_healthy_campaign_has_no_forensics(self):
        from repro.resil.chaos import CampaignSpec, run_campaign

        spec = CampaignSpec(figure="fig1", seed=7, units=4, drop_rate=0.2)
        report = run_campaign(spec)
        assert report.exit_code() == 0
        assert report.forensics == []
        # Traced on the faulted arm all the same — every unit has an id.
        assert all(len(u.trace_id) == 32 for u in report.units)

    def test_clean_fuzz_keeps_store_bounded_and_no_forensics(
        self, monkeypatch
    ):
        from repro.resil import chaos
        from repro.resil.chaos import CampaignSpec, run_campaign

        made, unit_spans = [], []

        class Recording(Telemetry):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)
                clear = self.store.clear

                def counted_clear():
                    unit_spans.append(len(self.store))
                    clear()

                self.store.clear = counted_clear

        monkeypatch.setattr(chaos, "Telemetry", Recording)
        report = run_campaign(CampaignSpec("fig5-mix", seed=3, units=60))
        assert report.exit_code() == 0
        assert report.forensics == []
        (telemetry,) = made
        # Warm-up plus one clear per unit, each of one unit's spans.
        assert len(unit_spans) == 61
        assert len(telemetry.store) <= max(unit_spans)
        assert len(telemetry.tracer.spans) <= max(unit_spans)

    def test_unit_that_breaks_the_books_is_named_and_dumped(
        self, monkeypatch
    ):
        """The check runs after every unit: a credit outside the ledger
        during unit 5 is pinned on unit 5, whose trace is dumped."""
        from repro.resil import chaos
        from repro.resil.chaos import CampaignSpec, run_campaign
        from repro.workloads.load import Fig5Scenario

        class Leaky(Fig5Scenario):
            def op(self, realm, config, state, pstate, i, k):
                outcome = super().op(realm, config, state, pstate, i, k)
                if k == 5:
                    payee = state["bank_b"].accounts[f"payee-{i}"]
                    payee.balances["dollars"] += 1
                return outcome

        monkeypatch.setattr(chaos, "scenario_for", lambda figure: Leaky())
        report = run_campaign(CampaignSpec("fig5", seed=7, units=8))
        assert report.exit_code() == 1
        faulted = [
            p for p in report.recovery_problems if not p.startswith("baseline")
        ]
        assert faulted[0].startswith("unit 5: conservation broken")
        assert not any(
            p.startswith(f"unit {n}:") for n in range(5) for p in faulted
        )
        assert "recovery: FAIL" in report.render()
        assert report.forensics
        assert report.units[5].trace_id in report.forensics[0]

    def test_a_growing_drift_is_reported_once(self, monkeypatch):
        """A drift whose text carries a moving balance is one problem per
        key (subject, kind, currency), not one per unit that still sees
        it: reported at the unit it began, with that unit the only
        offender dumped."""
        from repro.resil import chaos
        from repro.resil.chaos import CampaignSpec, run_campaign
        from repro.workloads.load import Fig5Scenario

        class Drifting(Fig5Scenario):
            def op(self, realm, config, state, pstate, i, k):
                outcome = super().op(realm, config, state, pstate, i, k)
                if k >= 2:
                    payee = state["bank_b"].accounts[f"payee-{i}"]
                    payee.balances["dollars"] += 1
                return outcome

        monkeypatch.setattr(chaos, "scenario_for", lambda figure: Drifting())
        report = run_campaign(CampaignSpec("fig5", seed=7, units=8))
        faulted = [
            p for p in report.recovery_problems if not p.startswith("baseline")
        ]
        assert [p.split(": ", 2)[1] for p in faulted] == [
            "conservation broken",
            "bank-b audit",
        ]
        assert all(p.startswith("unit 2: ") for p in faulted)
        assert len(report.forensics) == 1
        assert report.units[2].trace_id in report.forensics[0]


class TestCli:
    def test_trace_follow_renders_a_waterfall(self, capsys):
        from repro.__main__ import main

        import re

        main(["trace", "fig1"])
        out = capsys.readouterr().out
        assert "traces recorded" in out
        match = re.search(r"^\s+([0-9a-f]{32})\b", out, re.MULTILINE)
        assert match, "no trace id listed in the report"
        trace_id = match.group(1)

        main(["trace", "fig1", "--follow", trace_id[:10]])
        followed = capsys.readouterr().out
        assert f"trace {trace_id}" in followed
        assert "run:fig1" in followed

    def test_trace_follow_unknown_id_exits_with_known_ids(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="no trace matches"):
            main(["trace", "fig1", "--follow", "f" * 32])

    def test_forensics_validate_and_render(self, capsys, tmp_path):
        from repro.__main__ import main

        dump = tmp_path / "spans.jsonl"
        main(["trace", "fig1", "--jsonl", str(dump)])
        capsys.readouterr()

        with pytest.raises(SystemExit) as excinfo:
            main(["forensics", "--from", str(dump), "--validate"])
        assert excinfo.value.code == 0
        assert "schema ok" in capsys.readouterr().out

        with pytest.raises(SystemExit) as excinfo:
            main(["forensics", "--from", str(dump)])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        trace_id = out.split("traces (slowest first):")[1].split()[0]

        with pytest.raises(SystemExit) as excinfo:
            main(["forensics", "--from", str(dump), "--trace", trace_id[:8]])
        assert excinfo.value.code == 0
        assert f"trace {trace_id}" in capsys.readouterr().out

    def test_forensics_flags_a_corrupt_dump(self, capsys, tmp_path):
        import json

        from repro.__main__ import main

        dump = tmp_path / "bad.jsonl"
        record = {
            "span_id": 1,
            "parent_id": 99,  # unresolved parent
            "run_id": None,
            "trace_id": "a" * 32,
            "name": "s",
            "start": 0.0,
            "end": 1.0,
            "status": "ok",
            "attributes": {},
            "events": [],
        }
        dump.write_text(json.dumps(record) + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["forensics", "--from", str(dump), "--validate"])
        assert excinfo.value.code == 1
        assert "does not resolve" in capsys.readouterr().out
