"""End-to-end observability: scenario replays, exports, the no-op default."""

import json

import pytest

from repro.obs import NO_TELEMETRY, Telemetry
from repro.testbed import Realm
from repro.workloads import load
from repro.workloads.load import SCENARIOS, run_figure


@pytest.fixture
def fig3():
    telemetry = Telemetry(capture_crypto=True)
    try:
        yield run_figure("fig3", telemetry)
    finally:
        telemetry.release_crypto()


class TestFig3Trace:
    def test_one_run_two_steps_two_exchanges(self, fig3):
        (root,) = fig3.tracer.roots()
        assert root.name == "run:fig3"
        steps = fig3.tracer.find("fig.step")
        assert [s.attributes["step"] for s in steps] == ["1+2", 3]
        sends = fig3.tracer.find("net.send")
        assert len(sends) == 2  # messages 1-3, one exchange per arrow
        assert all(s.run_id == root.run_id for s in steps + sends)
        # Each figure arrow is a request/response pair.
        assert all(s.attributes["messages"] == 2 for s in sends)

    def test_span_tree_matches_figure_notation(self, fig3):
        tree = fig3.render_tree()
        assert "message 1+2" in tree
        assert "{Kproxy}Ksession" in tree
        assert "message 3: present proxy to S" in tree
        assert "verify.chain @files@REPRO.ORG" in tree

    def test_message_trace_lists_the_three_arrows(self, fig3):
        # Arrows 1 and 2 are one exchange's request and reply.
        lines = fig3.render_message_trace().splitlines()
        assert len(lines) == 2
        assert "p0@REPRO.ORG -> authz@REPRO.ORG : request" in lines[0]
        assert "p0@REPRO.ORG -> files@REPRO.ORG : request" in lines[1]

    def test_audit_record_rides_the_trace_as_a_span_event(self, fig3):
        events = [
            (span, event)
            for span in fig3.tracer.spans
            for event in span.events
            if event.name == "audit.record"
        ]
        (span, event) = events[-1]
        assert span.run_id is not None  # correlated to the protocol run
        assert event.attributes["server"] == "files@REPRO.ORG"
        assert event.attributes["operation"] == "read"

    def test_prometheus_export_has_hot_path_metrics(self, fig3):
        text = fig3.prometheus()
        assert "# TYPE verify_chain_seconds histogram" in text
        assert "# TYPE network_messages_total counter" in text
        assert fig3.metrics.counter("network_messages_total").total() > 0
        assert fig3.metrics.histogram("verify_chain_seconds").total_count() > 0
        assert fig3.metrics.counter("proxy_verifications_total").value(
            outcome="verified"
        ) > 0
        assert fig3.metrics.counter("signature_operations_total").total() > 0
        assert fig3.metrics.counter("kdc_tickets_issued_total").total() > 0

    def test_jsonl_export_parses(self, fig3):
        records = [
            json.loads(line) for line in fig3.spans_jsonl().splitlines()
        ]
        assert {"net.send", "rpc.handle", "verify.chain"} <= {
            r["name"] for r in records
        }


class TestOtherFigures:
    @pytest.mark.parametrize("name", ["fig1", "fig4", "fig5", "pk-verify"])
    def test_every_figure_runs_and_renders(self, name):
        telemetry = run_figure(name)
        assert telemetry.tracer.roots()[0].name == f"run:{name}"
        assert telemetry.render_tree()
        assert "verify.chain" in telemetry.render_tree()
        assert telemetry.tracer.find("fig.step")

    def test_fig4_shows_the_kerberos_file_server_request(self):
        (line,) = run_figure("fig4").render_message_trace().splitlines()
        assert " 1. dave0@REPRO.ORG -> files@REPRO.ORG : request" in line

    def test_fig5_shows_nested_endorsement_hops(self):
        telemetry = run_figure("fig5")
        lines = telemetry.render_message_trace().splitlines()
        assert "p0@REPRO.ORG -> bank-b@REPRO.ORG" in lines[0]
        # The E2 forward to the payor's server is a nested (indented) hop.
        assert all(line.startswith("    ") for line in lines[1:])
        assert "bank-b@REPRO.ORG -> bank-a@REPRO.ORG" in lines[-1]

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_figure("fig99")


class TestNoOpDefault:
    """Seed behavior is unchanged when no telemetry is supplied."""

    def test_realm_defaults_to_null_telemetry(self):
        realm = Realm(seed=b"plain")
        assert realm.network.telemetry is NO_TELEMETRY
        assert realm.telemetry is NO_TELEMETRY

    def test_message_and_byte_counts_identical_with_and_without(
        self, monkeypatch
    ):
        """Spans, ``fig.step`` included, never touch the wire."""
        realms = []

        class RecordedRealm(Realm):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                realms.append(self)

        monkeypatch.setattr(load, "Realm", RecordedRealm)

        def counts(name, telemetry):
            run_figure(name, telemetry)
            snapshot = realms[-1].network.metrics.snapshot()
            return snapshot.messages, snapshot.bytes, dict(snapshot.by_type)

        for name in sorted(SCENARIOS):
            bare = counts(name, NO_TELEMETRY)
            assert bare[0] > 0, name
            assert bare == counts(name, Telemetry()), name

    def test_shared_network_telemetry_is_adopted(self):
        telemetry = Telemetry()
        realm_a = Realm(seed=b"shared", telemetry=telemetry)
        realm_b = Realm(
            seed=b"other",
            network=realm_a.network,
            clock=realm_a.clock,
            realm="OTHER.ORG",
        )
        assert realm_b.telemetry is telemetry
