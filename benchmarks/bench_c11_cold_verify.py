"""C11 — cold-path chain verification: precomputed tables vs native ``pow()``.

PR 2's caches made *warm* chains cheap; this benchmark measures the cold
path they never touch — every presentation fully re-verified (all caches
disabled) — under two arms:

* **native** — ``set_precompute(False)``: square-and-multiply ``pow()``
  for every exponentiation;
* **tables** — the generator's window table plus a comb for every
  identity key the walk registers on first sight.

Two cascade shapes at depths 2/4/8:

* **delegate** chains (Fig. 4 with an audit trail) — every link signed
  by a *registered* identity key, the CERN-style mediated-delegation
  workload where per-verifier key tables apply to every link.  This is
  the gated workload: tables must beat native by ``MIN_SPEEDUP`` (2.0;
  ``SMOKE_MIN_SPEEDUP``, 1.5, with ``--smoke``) at depth 8.
* **bearer** chains — links signed by embedded proxy keys, which earn a
  table only on a warm chain-cache hit; with the caches off there is
  none, so only the generator-side work accelerates.  Reported for
  honesty, not gated.

Run under pytest for the timing fixtures, or as a script, which prints
the comparison and exits non-zero when the gate fails::

    PYTHONPATH=src python benchmarks/bench_c11_cold_verify.py [--smoke]
"""

import argparse
import sys
import time

import pytest

from conftest import report
from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import cascade, delegate_cascade, grant_public
from repro.core.restrictions import Grantee
from repro.core.vcache import DISABLED_CONFIG, override as vcache_override
from repro.core.verification import ProxyVerifier, PublicKeyCrypto
from repro.crypto import schnorr
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import SchnorrSigner
from repro.encoding.identifiers import PrincipalId

START = 1_000_000.0
ALICE = PrincipalId("alice")
CAROL = PrincipalId("carol")
SERVER = PrincipalId("server")
DEPTHS = (2, 4, 8)

#: How much faster depth-8 delegate verification must be with tables.
MIN_SPEEDUP = 2.0
SMOKE_MIN_SPEEDUP = 1.5

#: (arm, precompute enabled)
ARMS = (("native", False), ("tables", True))


def build_bearer_chain(depth):
    """Fig. 4 bearer cascade: links signed by one-shot proxy keys."""
    rng = Rng(seed=b"c11-bearer-%d" % depth)
    clock = SimulatedClock(START)
    identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    proxy = grant_public(
        ALICE, SchnorrSigner(identity), (), START, START + 3600, rng,
        group=TEST_GROUP,
    )
    for _ in range(depth - 1):
        proxy = cascade(proxy, (), START, START + 3600, rng)
    crypto = PublicKeyCrypto(
        directory={ALICE: SchnorrSigner(identity).verifier()}
    )
    return clock, crypto, proxy, None


def build_delegate_chain(depth):
    """Audit-trail cascade: every link signed by a registered identity."""
    rng = Rng(seed=b"c11-delegate-%d" % depth)
    clock = SimulatedClock(START)
    directory = {}
    identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    directory[ALICE] = SchnorrSigner(identity).verifier()
    relays = [PrincipalId(f"relay-{i}") for i in range(depth - 1)]
    first = relays[0] if relays else CAROL
    proxy = grant_public(
        ALICE, SchnorrSigner(identity), (Grantee(principals=(first,)),),
        START, START + 3600, rng, group=TEST_GROUP,
    )
    for i, relay in enumerate(relays):
        relay_identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        directory[relay] = SchnorrSigner(relay_identity).verifier()
        nxt = relays[i + 1] if i + 1 < len(relays) else CAROL
        proxy = delegate_cascade(
            proxy, relay, SchnorrSigner(relay_identity), nxt,
            (), START, START + 3600, rng=rng, group=TEST_GROUP,
        )
    return clock, PublicKeyCrypto(directory=directory), proxy, CAROL


WORKLOADS = (
    ("delegate", build_delegate_chain),
    ("bearer", build_bearer_chain),
)


def measure(builder, depth, precompute, iterations):
    """Cold-verify ``iterations`` fresh presentations of one chain.

    All verification caches are off, so every presentation re-verifies
    the whole chain; presentations are pre-signed so presenter cost is
    excluded from the timing.  Returns verifications per second.
    """
    clock, crypto, proxy, claimant = builder(depth)
    schnorr.clear_key_tables()
    with vcache_override(DISABLED_CONFIG):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        presentations = [
            present(proxy, SERVER, clock.now(), "read", claimant=claimant)
            for _ in range(iterations + 1)
        ]
        context = RequestContext(
            server=SERVER, operation="read", claimant=claimant
        )
        previous = schnorr.set_precompute(precompute)
        try:
            # One warm-up pass so one-time costs (identity-key table
            # registration) land outside the steady-state timing, exactly
            # as they amortize across a long-lived verifier process.
            verifier.verify(presentations[0], context)
            start = time.perf_counter()
            for presented in presentations[1:]:
                verifier.verify(presented, context)
            elapsed = time.perf_counter() - start
        finally:
            schnorr.set_precompute(previous)
    return iterations / elapsed if elapsed > 0 else float("inf")


def run_comparison(iterations, min_speedup):
    """The full two-arm comparison; returns the results."""
    results = {}
    rows = []
    for workload, builder in WORKLOADS:
        per_depth = {}
        for depth in DEPTHS:
            arms = {
                name: measure(builder, depth, precompute, iterations)
                for name, precompute in ARMS
            }
            native = arms["native"]
            per_depth[str(depth)] = {
                "native_ops_per_sec": round(native, 2),
                "tables_ops_per_sec": round(arms["tables"], 2),
                "tables_speedup": round(arms["tables"] / native, 3),
            }
            rows.append(
                (
                    workload,
                    str(depth),
                    f"{native:.1f}",
                    f"{arms['tables']:.1f}",
                    f"{per_depth[str(depth)]['tables_speedup']:.2f}x",
                )
            )
        results[workload] = per_depth
    report(
        "C11: cold-path cascade verification, native pow() vs tables",
        rows,
        ("workload", "depth", "native/s", "tables/s", "speedup"),
    )
    gate = results["delegate"]["8"]["tables_speedup"]
    return {
        # The headline: delegate cascades at depth 8, tables vs native.
        "speedup": gate,
        "passed": gate >= min_speedup,
        "workloads": results,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("precompute", [True, False], ids=["tables", "native"])
def test_delegate_cascade_cold_verify(benchmark, precompute):
    clock, crypto, proxy, claimant = build_delegate_chain(4)
    with vcache_override(DISABLED_CONFIG):
        verifier = ProxyVerifier(server=SERVER, crypto=crypto, clock=clock)
        context = RequestContext(
            server=SERVER, operation="read", claimant=claimant
        )

        def run():
            presented = present(
                proxy, SERVER, clock.now(), "read", claimant=claimant
            )
            return verifier.verify(presented, context)

        previous = schnorr.set_precompute(precompute)
        try:
            result = benchmark(run)
        finally:
            schnorr.set_precompute(previous)
    assert result.chain_length == 4


def test_tables_faster_than_native(benchmark):
    """The acceptance claim, in-suite: a quick comparison run."""
    payload = run_comparison(iterations=8, min_speedup=1.0)
    assert payload["workloads"]["delegate"]["8"]["tables_speedup"] > 1.0
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
    iterations = 6 if args.smoke else 25
    min_speedup = SMOKE_MIN_SPEEDUP if args.smoke else MIN_SPEEDUP
    payload = run_comparison(iterations, min_speedup)
    if not payload["passed"]:
        print(
            f"FAIL: delegate depth-8 tables speedup "
            f"{payload['speedup']} < {min_speedup}",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: delegate depth-8 tables speedup "
        f"{payload['speedup']}x >= {min_speedup}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
