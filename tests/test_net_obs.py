"""Network taps and fault injection interacting with the meters.

Satellite coverage for the observability PR: the tap sees exactly the
bytes the meter counts, drops are counted (and attributed) rather than
delivered, seeded runs reproduce, and the snapshot-delta rename keeps its
semantics.
"""

import pytest

from repro.clock import SimulatedClock
from repro.crypto.rng import Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import MessageDroppedError
from repro.net.network import Network
from repro.obs import Telemetry

ALICE = PrincipalId("alice")
BOB = PrincipalId("bob")
CAROL = PrincipalId("carol")


def build_network(seed=b"net-obs", telemetry=None):
    network = Network(
        SimulatedClock(0.0), rng=Rng(seed=seed), telemetry=telemetry
    )
    network.register(BOB, lambda message: {"echo": message.payload})
    network.register(CAROL, lambda message: {"ok": True})
    return network


class TestTaps:
    def test_tap_sees_exact_wire_bytes(self):
        telemetry = Telemetry()
        network = build_network(telemetry=telemetry)
        seen = []
        network.add_tap(lambda message: seen.append(message))
        network.send(ALICE, BOB, "ping", {"n": 1})
        # Request and response both crossed the wire, in order.
        assert [m.msg_type for m in seen] == ["ping", "ping-reply"]
        tapped = sum(m.wire_size() for m in seen)
        assert tapped == network.metrics.bytes
        assert tapped == telemetry.metrics.counter(
            "network_bytes_total"
        ).total()

    def test_removed_tap_stops_seeing(self):
        network = build_network()
        seen = []
        tap = lambda message: seen.append(message)  # noqa: E731
        network.add_tap(tap)
        network.send(ALICE, BOB, "ping", {})
        network.remove_tap(tap)
        network.send(ALICE, BOB, "ping", {})
        assert len(seen) == 2


class TestDrops:
    def test_blackholed_request_counted_not_delivered(self):
        telemetry = Telemetry()
        network = build_network(telemetry=telemetry)
        delivered = []
        network.register(BOB, lambda m: delivered.append(m) or {})
        network.blackhole(BOB)
        with pytest.raises(MessageDroppedError):
            network.send(ALICE, BOB, "ping", {})
        assert delivered == []
        assert network.metrics.dropped == 1
        # Attribution: who lost what.
        snapshot = network.metrics.snapshot()
        assert snapshot.dropped_by_pair == {(str(ALICE), str(BOB)): 1}
        assert snapshot.dropped_by_type == {"ping": 1}
        assert telemetry.metrics.counter("network_dropped_total").value(
            reason="blackhole", msg_type="ping"
        ) == 1
        # The request was still metered (it reached the wire).
        assert snapshot.messages == 1

    def test_dropped_send_span_is_marked(self):
        telemetry = Telemetry()
        network = build_network(telemetry=telemetry)
        network.blackhole(BOB)
        with pytest.raises(MessageDroppedError):
            network.send(ALICE, BOB, "ping", {})
        (span,) = telemetry.tracer.find("net.send")
        assert span.status == "error"
        assert span.attributes["dropped"] is True
        assert span.attributes["drop_reason"] == "blackhole"
        assert "DROPPED (blackhole)" in telemetry.render_message_trace()

    def test_heal_restores_delivery(self):
        network = build_network()
        network.blackhole(BOB)
        with pytest.raises(MessageDroppedError):
            network.send(ALICE, BOB, "ping", {})
        network.heal(BOB)
        assert network.send(ALICE, BOB, "ping", {"n": 2})["echo"] == {"n": 2}

    def test_random_drops_reproduce_under_the_same_seed(self):
        def outcomes(seed):
            network = build_network(seed=seed)
            network.set_drop_probability(0.4)
            results = []
            for i in range(30):
                try:
                    network.send(ALICE, BOB, "ping", {"i": i})
                    results.append("ok")
                except MessageDroppedError:
                    results.append("drop")
            return results, network.metrics.dropped

        # Identical seed: identical fate for every message.
        first, dropped_first = outcomes(b"seed-a")
        again, dropped_again = outcomes(b"seed-a")
        assert first == again
        assert dropped_first == dropped_again
        assert "drop" in first and "ok" in first
        # A different seed draws differently.
        other, _ = outcomes(b"seed-b")
        assert other != first


class TestSnapshotDelta:
    def test_delta_to_reads_chronologically(self):
        network = build_network()
        before = network.metrics.snapshot()
        network.send(ALICE, BOB, "ping", {})
        after = network.metrics.snapshot()
        delta = before.delta_to(after)
        assert delta.messages == 2  # request + response
        assert delta.bytes > 0
        assert delta.by_type == {"ping": 1, "ping-reply": 1}

    def test_delta_since_matches_delta_to(self):
        network = build_network()
        before = network.metrics.snapshot()
        network.send(ALICE, BOB, "ping", {})
        assert (
            network.metrics.delta_since(before).messages
            == before.delta_to(network.metrics.snapshot()).messages
        )

    def test_deprecated_delta_alias_is_gone(self):
        # delta_to is the API; the backwards-reading alias was removed.
        network = build_network()
        before = network.metrics.snapshot()
        assert not hasattr(before, "delta")

    def test_drop_attribution_survives_the_delta(self):
        network = build_network()
        network.blackhole(CAROL)
        before = network.metrics.snapshot()
        network.send(ALICE, BOB, "ping", {})
        with pytest.raises(MessageDroppedError):
            network.send(ALICE, CAROL, "ping", {})
        delta = network.metrics.delta_since(before)
        assert delta.dropped == 1
        assert delta.dropped_by_pair == {(str(ALICE), str(CAROL)): 1}
