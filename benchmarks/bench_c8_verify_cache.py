"""C8 — the verification fast path: cached vs uncached chain verification.

Repeated presentation of the same Fig. 4 cascade is the workload the
chain-prefix cache and signature memo exist for: the chain's stage 1–2
work (canonical encoding + one signature verify per link) is identical
every time, while freshness, possession, and replay checks stay
per-request.  This benchmark measures verification throughput for the
same chain presented many times, with the caches on and off, for both
crypto substrates:

* **Schnorr** public-key chains — each link verify is a pure-Python
  modular exponentiation, the expensive case the cache targets;
* **HMAC** conventional chains — hashlib-fast links, reported for
  completeness (the cache still wins, by less).

Run under pytest for the timing fixtures, or as a script::

    PYTHONPATH=src python benchmarks/bench_c8_verify_cache.py [--smoke]

The script prints the comparison and exits non-zero when the cached
Schnorr cascade path is not at least ``MIN_SPEEDUP`` (3.0) times faster
than uncached; ``--smoke`` runs fewer iterations against a deliberately
forgiving ``SMOKE_MIN_SPEEDUP`` (1.2) so shared runners do not flake.
"""

import argparse
import sys
import time

import pytest

from conftest import report
from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import cascade, grant_conventional, grant_public
from repro.core.restrictions import Quota
from repro.core.vcache import (
    DEFAULT_CONFIG,
    DISABLED_CONFIG,
    override as vcache_override,
)
from repro.core.verification import (
    ProxyVerifier,
    PublicKeyCrypto,
    SharedKeyCrypto,
)
from repro.crypto import signature as _signature
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr import generate_keypair
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import SchnorrSigner
from repro.encoding.identifiers import PrincipalId

START = 1_000_000.0
ALICE = PrincipalId("alice")
SERVER = PrincipalId("server")
CHAIN_LENGTH = 6

#: How much faster the cached Schnorr cascade must verify than uncached.
MIN_SPEEDUP = 3.0
SMOKE_MIN_SPEEDUP = 1.2


def build_schnorr_chain(length=CHAIN_LENGTH):
    """A Fig. 4 bearer cascade under pure public-key crypto."""
    rng = Rng(seed=b"c8-schnorr")
    clock = SimulatedClock(START)
    identity = generate_keypair(TEST_GROUP, rng=rng)
    proxy = grant_public(
        ALICE, SchnorrSigner(identity), (), START, START + 3600, rng,
        group=TEST_GROUP,
    )
    for i in range(length - 1):
        proxy = cascade(
            proxy, (Quota(currency=f"hop{i}", limit=100),),
            START, START + 3600, rng,
        )
    crypto = PublicKeyCrypto(
        directory={ALICE: SchnorrSigner(identity).verifier()}
    )
    return clock, crypto, proxy


def build_hmac_chain(length=CHAIN_LENGTH):
    """The same cascade shape under conventional (shared-key) crypto."""
    rng = Rng(seed=b"c8-hmac")
    clock = SimulatedClock(START)
    shared = SymmetricKey.generate(rng=rng)
    proxy = grant_conventional(ALICE, shared, (), START, START + 3600, rng)
    for i in range(length - 1):
        proxy = cascade(
            proxy, (Quota(currency=f"hop{i}", limit=100),),
            START, START + 3600, rng,
        )
    crypto = SharedKeyCrypto({ALICE: shared})
    return clock, crypto, proxy


def _presentations(clock, proxy, count):
    """Pre-signed presentations (presenter cost excluded from the timing)."""
    return [
        present(proxy, SERVER, clock.now(), "read") for _ in range(count)
    ]


def measure(builder, config, iterations):
    """Verify ``iterations`` fresh presentations of one chain under ``config``.

    Returns (ops_per_sec, stats) where stats carries the cache hit/miss
    counts observed by this run's verifier and signature cache.
    """
    clock, crypto, proxy = builder()
    with vcache_override(config):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        presentations = _presentations(clock, proxy, iterations)
        context = RequestContext(server=SERVER, operation="read")
        start = time.perf_counter()
        for presented in presentations:
            verifier.verify(presented, context)
        elapsed = time.perf_counter() - start
        sig_cache = _signature.get_signature_cache()
        stats = {
            "chain": (
                verifier.chain_cache.stats()
                if verifier.chain_cache is not None
                else None
            ),
            "sig": sig_cache.stats() if sig_cache is not None else None,
        }
    ops = iterations / elapsed if elapsed > 0 else float("inf")
    return ops, stats


def run_comparison(iterations, min_speedup):
    """The full cached-vs-uncached comparison; returns the results."""
    results = {}
    rows = []
    for name, builder in (
        ("schnorr", build_schnorr_chain),
        ("hmac", build_hmac_chain),
    ):
        on_ops, on_stats = measure(builder, DEFAULT_CONFIG, iterations)
        off_ops, _ = measure(builder, DISABLED_CONFIG, iterations)
        speedup = on_ops / off_ops if off_ops > 0 else float("inf")
        chain = on_stats["chain"] or {}
        sig = on_stats["sig"] or {}
        chain_total = chain.get("hits", 0) + chain.get("misses", 0)
        results[name] = {
            "speedup": round(speedup, 3),
            "chain_hit_rate": (
                round(chain.get("hits", 0) / chain_total, 4)
                if chain_total
                else 0.0
            ),
        }
        rows.append(
            (
                name,
                f"{off_ops:.1f}",
                f"{on_ops:.1f}",
                f"{speedup:.2f}x",
                f"{results[name]['chain_hit_rate']:.0%}",
                f"{sig.get('hits', 0)}/{sig.get('misses', 0)}",
            )
        )
    report(
        "C8: repeated Fig.4 cascade verification, cache off vs on",
        rows,
        (
            "scheme",
            "uncached ops/s",
            "cached ops/s",
            "speedup",
            "chain hits",
            "sig hits/misses",
        ),
    )
    return {
        "passed": results["schnorr"]["speedup"] >= min_speedup,
        "schemes": results,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
def test_schnorr_cascade_verify(benchmark, cached):
    clock, crypto, proxy = build_schnorr_chain()
    config = DEFAULT_CONFIG if cached else DISABLED_CONFIG
    with vcache_override(config):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        context = RequestContext(server=SERVER, operation="read")

        def run():
            presented = present(proxy, SERVER, clock.now(), "read")
            return verifier.verify(presented, context)

        # A chain cache hits only from a chain's second verification, and
        # under --benchmark-disable the timed call is the only one: verify
        # once first, so even a single timed call runs warm.
        run()
        result = benchmark(run)
    assert result.chain_length == CHAIN_LENGTH
    if cached:
        assert verifier.chain_cache.stats()["hits"] > 0


def test_cached_faster_than_uncached(benchmark):
    """The acceptance claim, in-suite: a quick comparison run."""
    payload = run_comparison(iterations=20, min_speedup=1.0)
    assert payload["schemes"]["schnorr"]["speedup"] > 1.0
    assert payload["schemes"]["schnorr"]["chain_hit_rate"] > 0.5
    benchmark(lambda: None)


# ---------------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small iteration count and a forgiving speedup floor (CI)",
    )
    args = parser.parse_args(argv)
    iterations = 30 if args.smoke else 200
    min_speedup = SMOKE_MIN_SPEEDUP if args.smoke else MIN_SPEEDUP
    payload = run_comparison(iterations, min_speedup)
    speedup = payload["schemes"]["schnorr"]["speedup"]
    if not payload["passed"]:
        print(
            f"FAIL: cached schnorr speedup {speedup} < {min_speedup}",
            file=sys.stderr,
        )
        return 1
    print(f"ok: cached schnorr speedup {speedup}x >= {min_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
