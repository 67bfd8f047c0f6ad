"""Substrate microbenchmarks (ablation support).

Not a paper figure — these isolate the building blocks so the figure-level
numbers can be decomposed: canonical encoding, authenticated sealing, the
three signature schemes, replay registries at size, and ticket handling.
Useful when judging which layer dominates a protocol-level cost.
"""

import pytest

from repro.clock import SimulatedClock
from repro.core.replay import AcceptOnceRegistry, AuthenticatorCache
from repro.crypto import mac, rsa, schnorr, symmetric
from repro.crypto.keys import KeyPair, SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.encoding.canonical import decode, encode
from repro.encoding.identifiers import PrincipalId
from repro.kerberos.ticket import Ticket, TicketBody

RNG = Rng(seed=b"substrate")
KEY = symmetric.new_key(RNG)
SCHNORR = schnorr.generate_keypair(TEST_GROUP, rng=RNG)
RSA = rsa.generate_keypair(bits=1024, rng=Rng(seed=b"substrate-rsa"))

SAMPLE_VALUE = {
    "grantor": "alice@REPRO.ORG",
    "restrictions": [
        {"type": "authorized", "entries": [{"target": "doc/*", "operations": ["read"]}]},
        {"type": "quota", "currency": "pages", "limit": 10},
    ],
    "issued_at": 1_000_000.0,
    "expires_at": 1_003_600.0,
    "nonce": b"n" * 16,
}
SAMPLE_BYTES = encode(SAMPLE_VALUE)
PLAINTEXT = b"p" * 512


def test_canonical_encode(benchmark):
    benchmark(encode, SAMPLE_VALUE)


def test_canonical_decode(benchmark):
    benchmark(decode, SAMPLE_BYTES)


def test_seal(benchmark):
    benchmark(symmetric.seal, KEY, PLAINTEXT)


def test_unseal(benchmark):
    box = symmetric.seal(KEY, PLAINTEXT)
    benchmark(symmetric.unseal, KEY, box)


def test_hmac_sign(benchmark):
    benchmark(mac.tag, KEY, SAMPLE_BYTES)


def test_schnorr_sign(benchmark):
    benchmark(schnorr.sign, SCHNORR, SAMPLE_BYTES, RNG)


def test_schnorr_verify(benchmark):
    sig = schnorr.sign(SCHNORR, SAMPLE_BYTES, rng=RNG)
    benchmark(schnorr.verify, SCHNORR.public, SAMPLE_BYTES, sig)


def test_schnorr_keygen(benchmark):
    """The per-proxy cost that made Schnorr the public-key default."""
    benchmark(schnorr.generate_keypair, TEST_GROUP, RNG)


def test_rsa_sign(benchmark):
    benchmark(rsa.sign, RSA, SAMPLE_BYTES)


def test_rsa_verify(benchmark):
    sig = rsa.sign(RSA, SAMPLE_BYTES)
    benchmark(rsa.verify, RSA.public, SAMPLE_BYTES, sig)


def test_ticket_seal_open(benchmark):
    server_key = SymmetricKey.generate(rng=RNG)
    body = TicketBody(
        client=PrincipalId("alice"),
        server=PrincipalId("server"),
        session_key=SymmetricKey.generate(rng=RNG),
        auth_time=0.0,
        expires_at=3600.0,
    )

    def run():
        return Ticket.seal(body, server_key, rng=RNG).open(server_key)

    assert benchmark(run).client == PrincipalId("alice")


@pytest.mark.parametrize("live_entries", [100, 10_000])
def test_accept_once_register(benchmark, live_entries):
    clock = SimulatedClock(0.0)
    registry = AcceptOnceRegistry(clock)
    grantor = PrincipalId("g")
    for i in range(live_entries):
        registry.register(grantor, f"seed-{i}", 1e12)
    counter = [live_entries]

    def run():
        counter[0] += 1
        return registry.register(grantor, f"id-{counter[0]}", 1e12)

    assert benchmark(run)


@pytest.mark.parametrize("live_entries", [100, 10_000])
def test_authenticator_cache_register(benchmark, live_entries):
    clock = SimulatedClock(0.0)
    cache = AuthenticatorCache(clock, window=1e12)
    for i in range(live_entries):
        cache.register(b"seed-%d" % i)
    counter = [live_entries]

    def run():
        counter[0] += 1
        return cache.register(b"id-%d" % counter[0])

    assert benchmark(run)


# -- delivery substrate: one round trip, per mode ---------------------------
#
# The cost the asyncio runtime adds to a single request: the sync network
# calls the handler inline; the aio network hops the request onto the event
# loop, through an inbox queue, and settles a future back across threads.
# The delta is the per-request price of concurrency (amortized away under
# wire latency — bench_c12_async_load.py measures that trade at load).


def _echo_handler(message):
    return {"echo": message.payload["x"]}


def test_net_sync_round_trip(benchmark):
    from repro.net.network import Network

    clock = SimulatedClock()
    net = Network(clock, rng=Rng(seed=b"substrate-net"))
    ep = PrincipalId("echo")
    net.register(ep, _echo_handler)
    client = PrincipalId("client")
    assert benchmark(net.send, client, ep, "ping", {"x": 1}) == {"echo": 1}


def test_net_aio_queued_round_trip(benchmark):
    import asyncio
    import threading

    from repro.net.aio import AioNetwork

    clock = SimulatedClock()
    net = AioNetwork(clock, rng=Rng(seed=b"substrate-aio"))
    ep = PrincipalId("echo")
    net.register(ep, _echo_handler)
    client = PrincipalId("client")
    ready = threading.Event()
    stop = threading.Event()

    def loop_main():
        async def _run():
            async with net.serve():
                ready.set()
                while not stop.is_set():
                    await asyncio.sleep(0.0005)

        asyncio.run(_run())

    runner = threading.Thread(target=loop_main)
    runner.start()
    ready.wait()
    try:
        assert benchmark(net.send, client, ep, "ping", {"x": 1}) == {
            "echo": 1
        }
    finally:
        stop.set()
        runner.join()
