"""The simulated network: delivery, metering, taps, fault injection."""

import pytest

from repro.clock import SimulatedClock
from repro.crypto.rng import Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    MessageDroppedError,
    ServiceError,
    UnknownEndpointError,
)
from repro.net import Eavesdropper, LatencyModel, Network, NetworkMetrics
from repro.net.message import (
    Message,
    encode_error,
    is_error,
    raise_if_error,
)
from repro.net.service import Service

ALICE = PrincipalId("alice")
SERVER = PrincipalId("server")


@pytest.fixture
def network(clock, rng):
    return Network(clock, rng=rng)


def echo_handler(message: Message) -> dict:
    return {"echo": message.payload}


class TestDelivery:
    def test_request_response(self, network):
        network.register(SERVER, echo_handler)
        reply = network.send(ALICE, SERVER, "ping", {"x": 1})
        assert reply == {"echo": {"x": 1}}

    def test_unknown_endpoint(self, network):
        with pytest.raises(UnknownEndpointError):
            network.send(ALICE, SERVER, "ping", {})

    def test_unregister(self, network):
        network.register(SERVER, echo_handler)
        network.unregister(SERVER)
        with pytest.raises(UnknownEndpointError):
            network.send(ALICE, SERVER, "ping", {})

    def test_latency_advances_simulated_clock(self, clock, rng):
        network = Network(
            clock, latency=LatencyModel(base=0.5, jitter=0.0), rng=rng
        )
        network.register(SERVER, echo_handler)
        before = clock.now()
        network.send(ALICE, SERVER, "ping", {})
        # One hop out, one hop back.
        assert clock.now() == pytest.approx(before + 1.0)


class TestMetrics:
    def test_messages_counted(self, network):
        network.register(SERVER, echo_handler)
        before = network.metrics.snapshot()
        network.send(ALICE, SERVER, "ping", {})
        delta = network.metrics.delta_since(before)
        assert delta.messages == 2  # request + reply
        assert delta.bytes > 0

    def test_by_type_and_pair(self, network):
        network.register(SERVER, echo_handler)
        network.send(ALICE, SERVER, "ping", {})
        snap = network.metrics.snapshot()
        assert snap.by_type["ping"] == 1
        assert snap.by_type["ping-reply"] == 1
        assert snap.by_pair[(str(ALICE), str(SERVER))] == 1

    def test_messages_to(self, network):
        network.register(SERVER, echo_handler)
        network.send(ALICE, SERVER, "ping", {})
        network.send(ALICE, SERVER, "ping", {})
        snap = network.metrics.snapshot()
        assert snap.messages_to(SERVER) == 2

    def test_reset(self, network):
        network.register(SERVER, echo_handler)
        network.send(ALICE, SERVER, "ping", {})
        network.metrics = NetworkMetrics()
        assert network.metrics.snapshot().messages == 0
        network.send(ALICE, SERVER, "ping", {})
        assert network.metrics.snapshot().messages == 2


class TestFaultInjection:
    def test_blackhole(self, network):
        network.register(SERVER, echo_handler)
        network.blackhole(SERVER)
        with pytest.raises(MessageDroppedError):
            network.send(ALICE, SERVER, "ping", {})
        network.heal(SERVER)
        assert network.send(ALICE, SERVER, "ping", {})

    def test_drop_probability_all(self, network):
        network.register(SERVER, echo_handler)
        network.set_drop_probability(1.0)
        with pytest.raises(MessageDroppedError):
            network.send(ALICE, SERVER, "ping", {})
        assert network.metrics.snapshot().dropped == 1

    def test_drop_probability_none(self, network):
        network.register(SERVER, echo_handler)
        network.set_drop_probability(0.0)
        network.send(ALICE, SERVER, "ping", {})

    def test_bad_probability_rejected(self, network):
        with pytest.raises(ValueError):
            network.set_drop_probability(1.5)


class TestEavesdropper:
    def test_captures_both_directions(self, network):
        network.register(SERVER, echo_handler)
        mallory = Eavesdropper()
        mallory.attach(network)
        network.send(ALICE, SERVER, "ping", {"secret": b"token"})
        assert len(mallory.captured) == 2
        assert mallory.last_of_type("ping").payload == {"secret": b"token"}

    def test_detach_stops_capture(self, network):
        network.register(SERVER, echo_handler)
        mallory = Eavesdropper()
        mallory.attach(network)
        mallory.detach(network)
        network.send(ALICE, SERVER, "ping", {})
        assert mallory.captured == []

    def test_replay(self, network):
        network.register(SERVER, echo_handler)
        mallory = Eavesdropper()
        mallory.attach(network)
        network.send(ALICE, SERVER, "ping", {"n": 1})
        captured = mallory.last_of_type("ping")
        reply = mallory.replay(network, captured)
        assert reply == {"echo": {"n": 1}}


class TestErrorTransport:
    def test_round_trip(self):
        from repro.errors import InsufficientFundsError

        payload = encode_error(InsufficientFundsError("broke"))
        assert is_error(payload)
        with pytest.raises(InsufficientFundsError, match="broke"):
            raise_if_error(payload)

    def test_restriction_violation_details_survive(self):
        from repro.errors import RestrictionViolation

        payload = encode_error(RestrictionViolation("quota", "too much"))
        with pytest.raises(RestrictionViolation) as info:
            raise_if_error(payload)
        assert info.value.restriction_type == "quota"

    def test_unknown_error_becomes_service_error(self):
        payload = encode_error(ValueError("odd"))
        with pytest.raises(ServiceError):
            raise_if_error(payload)

    def test_clean_payload_passes_through(self):
        assert raise_if_error({"ok": 1}) == {"ok": 1}


class TestServiceBase:
    def test_dispatch(self, network, clock):
        class Echo(Service):
            def op_ping(self, message):
                return {"pong": message.payload["n"]}

        Echo(SERVER, network, clock)
        assert network.send(ALICE, SERVER, "ping", {"n": 5}) == {"pong": 5}

    def test_unknown_operation(self, network, clock):
        class Empty(Service):
            pass

        Empty(SERVER, network, clock)
        reply = network.send(ALICE, SERVER, "nope", {})
        assert is_error(reply)

    def test_library_errors_transported(self, network, clock):
        from repro.errors import AuthorizationDenied

        class Denier(Service):
            def op_go(self, message):
                raise AuthorizationDenied("never")

        Denier(SERVER, network, clock)
        with pytest.raises(AuthorizationDenied):
            raise_if_error(network.send(ALICE, SERVER, "go", {}))

    def test_unencodable_value_in_a_handler_is_a_typed_error_reply(
        self, network, clock
    ):
        from repro.encoding.canonical import encode

        class Notary(Service):
            def op_digest(self, message):
                # Keyed by a request-supplied value: an int among str keys.
                claims = {message.payload["n"]: 1, "k": 2}
                return {"size": len(encode(claims))}

        Notary(SERVER, network, clock)
        reply = network.send(ALICE, SERVER, "digest", {"n": 5})
        assert is_error(reply)
        with pytest.raises(ServiceError, match="dict keys must be str") as info:
            raise_if_error(reply)
        assert "got int" in str(info.value)
        assert "TypeError" not in str(info.value)

    def test_hyphen_dispatch(self, network, clock):
        class Hyphen(Service):
            def op_two_words(self, message):
                return {"ok": True}

        Hyphen(SERVER, network, clock)
        assert network.send(ALICE, SERVER, "two-words", {}) == {"ok": True}


class TestLegFaults:
    """Request-leg vs response-leg loss are different failures."""

    def _counting_handler(self):
        calls = []

        def handler(message: Message) -> dict:
            calls.append(message.msg_type)
            return {"ok": True}

        return calls, handler

    def test_response_drop_after_side_effects(self, network):
        from repro.errors import ResponseDroppedError

        calls, handler = self._counting_handler()
        network.register(SERVER, handler)
        network.set_drop_probability(1.0, leg="response")
        with pytest.raises(ResponseDroppedError):
            network.send(ALICE, SERVER, "ping", {})
        # The handler ran — its side effects committed before the loss.
        assert calls == ["ping"]
        assert network.metrics.snapshot().dropped == 1

    def test_response_drop_is_a_dropped_message(self, network):
        """Callers catching MessageDroppedError keep working."""
        from repro.errors import MessageDroppedError, ResponseDroppedError

        assert issubclass(ResponseDroppedError, MessageDroppedError)

    def test_both_legs(self, network):
        calls, handler = self._counting_handler()
        network.register(SERVER, handler)
        network.set_drop_probability(1.0, leg="both")
        with pytest.raises(MessageDroppedError):
            network.send(ALICE, SERVER, "ping", {})
        # The request leg drops first: the handler never ran.
        assert calls == []

    def test_bad_leg_rejected(self, network):
        with pytest.raises(ValueError):
            network.set_drop_probability(0.5, leg="sideways")

    def test_request_leg_unaffected_by_response_probability(self, network):
        calls, handler = self._counting_handler()
        network.register(SERVER, handler)
        network.set_drop_probability(0.0, leg="response")
        assert network.send(ALICE, SERVER, "ping", {})["ok"]
        assert calls == ["ping"]


class TestBlackholeWindows:
    def test_scheduled_window(self, clock, rng):
        network = Network(clock, rng=rng)
        network.register(SERVER, echo_handler)
        now = clock.now()
        network.blackhole(SERVER, since=now + 10.0, until=now + 20.0)
        # Before the window opens: traffic flows.
        assert network.send(ALICE, SERVER, "ping", {})
        clock.advance(15.0)
        with pytest.raises(MessageDroppedError):
            network.send(ALICE, SERVER, "ping", {})
        # The window closes on its own — no heal() needed.
        clock.advance(10.0)
        assert network.send(ALICE, SERVER, "ping", {})

    def test_window_opening_mid_exchange_loses_only_the_reply(
        self, clock, rng
    ):
        from repro.errors import ResponseDroppedError

        network = Network(
            clock, latency=LatencyModel(base=0.5, jitter=0.0), rng=rng
        )
        calls = []

        def handler(message: Message) -> dict:
            calls.append(clock.now())
            return {"ok": True}

        network.register(SERVER, handler)
        # The partition starts after the request arrives but before the
        # reply makes it back: the server did the work, the client never
        # hears about it.
        network.blackhole(SERVER, since=clock.now() + 0.75)
        with pytest.raises(ResponseDroppedError):
            network.send(ALICE, SERVER, "ping", {})
        assert len(calls) == 1

    def test_heal_clears_scheduled_window(self, clock, rng):
        network = Network(clock, rng=rng)
        network.register(SERVER, echo_handler)
        network.blackhole(SERVER, since=clock.now() + 5.0)
        network.heal(SERVER)
        clock.advance(10.0)
        assert network.send(ALICE, SERVER, "ping", {})


class TestLatencyModel:
    def test_zero_jitter_deterministic(self):
        model = LatencyModel(base=0.002, jitter=0.0)
        rng = Rng(seed=b"lat")
        assert model.sample(rng) == 0.002

    def test_jitter_bounded(self):
        model = LatencyModel(base=0.001, jitter=0.004)
        rng = Rng(seed=b"lat2")
        for _ in range(100):
            sample = model.sample(rng)
            assert 0.001 <= sample <= 0.005


class TestMetricsEdgeCases:
    def test_delta_math(self, network):
        network.register(SERVER, lambda m: {"ok": True})
        s0 = network.metrics.snapshot()
        network.send(ALICE, SERVER, "a", {})
        s1 = network.metrics.snapshot()
        network.send(ALICE, SERVER, "b", {})
        delta01 = s0.delta_to(s1)
        delta12 = network.metrics.delta_since(s1)
        assert delta01.messages == 2
        assert delta12.messages == 2
        assert set(delta12.by_type) == {"b", "b-reply"}

    def test_wire_size_positive_and_monotone(self):
        small = Message(
            source=ALICE, destination=SERVER, msg_type="t", payload={}
        )
        big = Message(
            source=ALICE, destination=SERVER, msg_type="t",
            payload={"data": b"x" * 1000},
        )
        assert 0 < small.wire_size() < big.wire_size()
