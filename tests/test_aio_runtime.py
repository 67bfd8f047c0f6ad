"""Behavioral tests for the asyncio delivery runtime.

:class:`~repro.net.aio.AioNetwork` promises the synchronous network's
wire semantics behind a thread-safe blocking facade: inline delivery
outside ``serve()`` and for nested handler sends, queued delivery for
client threads, fault legs and unknown-endpoint errors propagated across
the thread boundary, timeouts that compose with the exactly-once
response cache, and a shutdown that leaves neither unanswered senders
nor leaked asyncio tasks behind.
"""

import asyncio
import copy
import threading
import time

import pytest

from repro.clock import SimulatedClock, SystemClock
from repro.crypto.rng import Rng
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    MessageDroppedError,
    NetworkClosedError,
    ReproError,
    RequestTimeoutError,
    ResponseDroppedError,
    UnknownEndpointError,
)
from repro.net.aio import AioNetwork, drive
from repro.net.network import LatencyModel
from repro.net.service import Service
from repro.resil.dedupe import ResponseCache

ALICE = PrincipalId("alice")
ECHO = PrincipalId("echo")
RELAY = PrincipalId("relay")


def simulated_network(**kwargs) -> AioNetwork:
    return AioNetwork(
        SimulatedClock(), rng=Rng(seed=b"aio-runtime-test"), **kwargs
    )


def echo_handler(message):
    return {"echo": message.payload["x"]}


class TestDeliveryPaths:
    def test_send_is_inline_before_serving(self):
        net = simulated_network()
        net.register(ECHO, echo_handler)
        assert net.send(ALICE, ECHO, "ping", {"x": 1}) == {"echo": 1}
        assert net.stats.queued == 0

    def test_client_threads_queue_but_nested_sends_stay_inline(self):
        net = simulated_network()
        threads = {}

        def relay(message):
            threads["relay"] = threading.get_ident()
            inner = net.send(RELAY, ECHO, "ping", {"x": message.payload["x"] + 1})
            return {"relayed": inner["echo"]}

        def echo(message):
            threads["echo"] = threading.get_ident()
            return echo_handler(message)

        net.register(RELAY, relay)
        net.register(ECHO, echo)
        result = drive(net, lambda: net.send(ALICE, RELAY, "ping", {"x": 1}))
        assert result == {"relayed": 2}
        # Only the outer request crossed a queue; the handler's nested
        # send ran inline on the loop thread, as in the sync network.
        assert net.stats.queued == 1
        assert threads["relay"] == threads["echo"]

    def test_unknown_endpoint_raises_through_the_queue(self):
        net = simulated_network()
        net.register(ECHO, echo_handler)

        def body():
            with pytest.raises(UnknownEndpointError):
                net.send(ALICE, PrincipalId("ghost"), "ping", {})
            return net.send(ALICE, ECHO, "ping", {"x": 5})

        assert drive(net, body) == {"echo": 5}

    def test_fault_legs_propagate_across_the_thread_boundary(self):
        net = simulated_network()
        calls = []

        def handler(message):
            calls.append(message.payload["x"])
            return echo_handler(message)

        net.register(ECHO, handler)

        def body():
            net.set_drop_probability(1.0, "request")
            with pytest.raises(MessageDroppedError):
                net.send(ALICE, ECHO, "ping", {"x": 1})
            net.set_drop_probability(0.0, "request")
            net.set_drop_probability(1.0, "response")
            with pytest.raises(ResponseDroppedError):
                net.send(ALICE, ECHO, "ping", {"x": 2})
            net.set_drop_probability(0.0, "response")
            return net.send(ALICE, ECHO, "ping", {"x": 3})

        assert drive(net, body) == {"echo": 3}
        # A dropped request never reached the handler; a dropped response
        # ran it (side effects committed) before the reply was lost.
        assert calls == [2, 3]

    def test_register_while_serving_spawns_a_worker(self):
        net = simulated_network()
        late = PrincipalId("late")

        def body():
            net.register(late, lambda message: {"late": True})
            return net.send(ALICE, late, "ping", {})

        assert drive(net, body) == {"late": True}
        assert net.stats.queued == 1

    def test_busy_inbox_drains_as_batches(self):
        net = simulated_network()

        def slow_echo(message):
            time.sleep(0.02)
            return echo_handler(message)

        net.register(ECHO, slow_echo)

        def burst():
            results = []
            lock = threading.Lock()

            def one(k):
                reply = net.send(ALICE, ECHO, "ping", {"x": k})
                with lock:
                    results.append(reply["echo"])

            workers = [
                threading.Thread(target=one, args=(k,)) for k in range(12)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            return results

        results = drive(net, burst)
        assert sorted(results) == list(range(12))
        assert net.stats.queued == 12
        # With a 20 ms handler and 12 concurrent senders, later arrivals
        # pile up behind the busy worker and drain together.
        assert net.stats.batches >= 1
        assert net.stats.batched_messages >= 2
        assert net.stats.max_queue_depth >= 2


class _SlowCounter(Service):
    """Counts invocations; slow enough for a short client timeout."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def op_bump(self, message):
        self.calls += 1
        time.sleep(0.2)
        return {"count": self.calls}


class TestTimeoutsAndShutdown:
    def test_timeout_then_identical_resend_hits_the_dedupe_cache(self):
        clock = SimulatedClock()
        net = AioNetwork(
            clock, rng=Rng(seed=b"aio-timeout"), request_timeout=0.05
        )
        svc = _SlowCounter(
            PrincipalId("counter"), net, clock, dedupe=ResponseCache(clock)
        )
        payload = {"_rid": "r-1", "who": "alice"}

        def body():
            with pytest.raises(RequestTimeoutError):
                net.send(ALICE, svc.principal, "bump", dict(payload))
            # The abandoned delivery still runs to completion server-side
            # (its reply is discarded, like a response lost on the wire).
            time.sleep(0.4)
            net.request_timeout = 10.0
            return net.send(ALICE, svc.principal, "bump", dict(payload))

        reply = drive(net, body)
        # The byte-identical resend was answered from the response cache:
        # the handler's side effects committed exactly once.
        assert reply == {"count": 1}
        assert svc.calls == 1
        assert svc.dedupe.hits == 1
        assert net.stats.timeouts == 1

    def test_serve_exit_leaves_no_tasks_and_overlaps_transit(self):
        net = AioNetwork(
            SystemClock(),
            latency=LatencyModel(base=0.05, jitter=0.0),
            rng=Rng(seed=b"aio-dilated"),
            time_dilation=1.0,
        )
        net.register(ECHO, echo_handler)

        def burst():
            results = []
            lock = threading.Lock()

            def one():
                reply = net.send(ALICE, ECHO, "ping", {"x": 2})
                with lock:
                    results.append(reply)

            workers = [threading.Thread(target=one) for _ in range(8)]
            started = time.perf_counter()
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            return time.perf_counter() - started, results

        async def _main():
            async with net.serve():
                loop = asyncio.get_running_loop()
                elapsed, results = await loop.run_in_executor(None, burst)
            leftover = [
                t for t in asyncio.all_tasks() if t is not asyncio.current_task()
            ]
            return elapsed, results, leftover

        elapsed, results, leftover = asyncio.run(_main())
        assert leftover == []
        assert results == [{"echo": 2}] * 8
        # 8 requests x 100 ms of round-trip transit would serialize to
        # 0.8 s in the sync mode; awaited transits overlap them.
        assert elapsed < 0.5

    def test_shutdown_abandons_requests_still_in_transit(self):
        net = AioNetwork(
            SystemClock(),
            latency=LatencyModel(base=0.5, jitter=0.0),
            rng=Rng(seed=b"aio-shutdown"),
            time_dilation=1.0,
        )
        net.register(ECHO, echo_handler)
        outcome = []

        def body():
            def one():
                try:
                    outcome.append(net.send(ALICE, ECHO, "ping", {"x": 1}))
                except ReproError as exc:
                    outcome.append(exc)

            sender = threading.Thread(target=one)
            sender.start()
            time.sleep(0.1)  # the request is now in dilated transit
            return sender

        sender = drive(net, body)
        sender.join(5.0)
        assert len(outcome) == 1
        assert isinstance(outcome[0], NetworkClosedError)
        assert net.stats.rejected >= 1

    def test_runtime_is_reusable_after_shutdown(self):
        net = simulated_network()
        net.register(ECHO, echo_handler)
        assert drive(net, lambda: net.send(ALICE, ECHO, "ping", {"x": 1})) == {
            "echo": 1
        }
        # Back to inline delivery once the runtime is down...
        assert net.send(ALICE, ECHO, "ping", {"x": 2}) == {"echo": 2}
        # ...and a second serve cycle works on the same instance.
        assert drive(net, lambda: net.send(ALICE, ECHO, "ping", {"x": 3})) == {
            "echo": 3
        }

    def test_serving_twice_concurrently_is_refused(self):
        net = simulated_network()

        async def _main():
            async with net.serve():
                with pytest.raises(RuntimeError):
                    async with net.serve():
                        pass  # pragma: no cover

        asyncio.run(_main())


def _pk_deployment():
    """A public-key end-server, one holder with a signed proxy, no load."""
    from repro.acl import AclEntry, SinglePrincipal
    from repro.core.proxy import grant_public
    from repro.core.restrictions import (
        Authorized,
        AuthorizedEntry,
        IssuedFor,
    )
    from repro.crypto.schnorr_groups import TEST_GROUP
    from repro.services.pk_endserver import (
        PkClient,
        PkEndServer,
        PublicKeyDirectory,
    )
    from repro.testbed import Realm
    from repro.workloads.load import PathArgs

    realm = Realm(seed=b"aio-prefetch-test")
    rng = realm.rng.fork(b"pk-test")
    directory = PublicKeyDirectory()
    server = PkEndServer(
        realm.principal("pk-gate"),
        realm.network,
        realm.clock,
        directory,
        group=TEST_GROUP,
        rng=rng,
    )
    server.register_operation(
        "read", lambda request: {"data": b"ok"}, PathArgs
    )
    grantor = PkClient(
        realm.principal("grantor"),
        realm.network,
        realm.clock,
        directory,
        group=TEST_GROUP,
        rng=rng,
    )
    server.acl.add(AclEntry(subject=SinglePrincipal(grantor.principal)))
    holder = PkClient(
        realm.principal("holder"),
        realm.network,
        realm.clock,
        directory,
        group=TEST_GROUP,
        rng=rng,
    )
    now = realm.clock.now()
    proxy = grant_public(
        grantor.principal,
        grantor.signer,
        (
            Authorized(entries=(AuthorizedEntry("doc", ("read",)),)),
            IssuedFor(servers=(server.principal,)),
        ),
        now,
        now + 86_400.0,
        rng,
        group=TEST_GROUP,
    )
    return realm, server, holder, proxy


class TestBatchPrefetch:
    def test_prefetch_warms_checks_and_verification_still_passes(self):
        realm, server, holder, proxy = _pk_deployment()
        captured = []
        realm.network.add_tap(captured.append)
        reply = holder.request(
            server.principal,
            "read",
            target="doc",
            args={"path": "doc"},
            proxy=proxy,
            anonymous=False,
        )
        assert reply["data"] == b"ok"
        request = next(m for m in captured if m.msg_type == "request")
        prefetcher = server.signature_prefetcher()
        # Envelope + chain link + possession proof per queued request.
        warmed = prefetcher(
            [("request", request.payload), ("request", request.payload)]
        )
        assert warmed == 6
        # A fresh request after the warm-up still verifies end to end.
        again = holder.request(
            server.principal,
            "read",
            target="doc",
            args={"path": "doc"},
            proxy=proxy,
            anonymous=False,
        )
        assert again["data"] == b"ok"

    def test_prefetch_never_lets_a_tampered_proxy_through(self):
        from repro.core.presentation import PresentedProxy
        from repro.crypto import signature as _signature
        from repro.net.message import raise_if_error

        realm, server, holder, proxy = _pk_deployment()
        captured = []
        realm.network.add_tap(captured.append)
        holder.request(
            server.principal,
            "read",
            target="doc",
            args={"path": "doc"},
            proxy=proxy,
            anonymous=False,
        )
        request = next(m for m in captured if m.msg_type == "request")
        tampered = copy.deepcopy(request.payload)
        sig = tampered["proxy"]["certificates"][0]["signature"]
        tampered["proxy"]["certificates"][0]["signature"] = sig[:-1] + bytes(
            [sig[-1] ^ 1]
        )
        prefetcher = server.signature_prefetcher()
        # The prefetcher swallows the failure (nothing is cached) and
        # keeps warming the rest of the batch.
        assert isinstance(
            prefetcher(
                [("request", tampered), ("request", request.payload)]
            ),
            int,
        )
        # The batched check itself flags the forged link...
        bad = PresentedProxy.from_wire(tampered["proxy"])
        bad_checks = server.verifier.collect_signature_checks(bad)
        errors = _signature.verify_batch(bad_checks)
        assert [str(error) for error in errors if error is not None] == [
            "schnorr signature verification failed"
        ]
        # ...and the server's authoritative verification rejects the
        # request even though the prefetcher saw it first.
        reply = realm.network.send(
            request.source, request.destination, "request", tampered
        )
        with pytest.raises(ReproError):
            raise_if_error(reply)

    def test_prefetch_ignores_malformed_payloads(self):
        _, server, _, _ = _pk_deployment()
        prefetcher = server.signature_prefetcher()
        assert (
            prefetcher(
                [
                    ("request", {"proxy": 42}),
                    ("request", {"proxy": {"certificates": "nope"}}),
                    ("other", {"proxy": {}}),
                    ("request", "not-a-dict"),
                ]
            )
            == 0
        )
