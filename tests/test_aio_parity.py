"""Async/sync delivery parity on the scenario table.

The asyncio runtime's determinism contract: with a single driving thread
and a :class:`~repro.clock.SimulatedClock`, the queued delivery path must
consume the seeded rng in exactly the same order as the synchronous
network.  Each scenario therefore runs twice on identically-seeded
realms — once per runtime — and everything observable must match: op
outcomes (verified-proxy verdicts and read data), finale balances, audit
records, wire message/byte counts, and the logical clock itself.

The scenarios are :data:`repro.workloads.load.SCENARIOS`, provisioned and
driven through the same ``setup → principal → op`` hooks as ``python -m
repro load``, the chaos campaigns and the end-to-end benchmark — so
parity here covers the traffic those measure, ``pk-verify`` (Fig. 6) and
``echo`` included.
"""

import pytest

from repro.net.aio import drive
from repro.resil.chaos import finale
from repro.testbed import Realm
from repro.workloads.load import SCENARIOS, LoadConfig, provision

UNITS = 6


def run_figure(figure: str, runtime: str) -> dict:
    """One seeded scenario run; returns every comparable observable."""
    realm = Realm(seed=b"aio-parity-" + figure.encode(), runtime=runtime)
    scenario = SCENARIOS[figure]()
    config = LoadConfig(scenario=figure, principals=1, mode=runtime)

    def body():
        state, (pstate,) = provision(scenario, realm, config)
        outcomes = [
            scenario.op(realm, config, state, pstate, 0, k)
            for k in range(UNITS)
        ]
        return state, outcomes

    if runtime == "aio":
        state, outcomes = drive(realm.network, body)
        # The driver thread is not the loop thread, so real traffic must
        # have crossed the inbox queues — otherwise this "parity" run
        # silently exercised the inline path only.
        assert realm.network.stats.queued > 0
    else:
        state, outcomes = body()

    assert scenario.check(realm, config, state, UNITS) == []
    audit = tuple(
        record
        for key in ("fs", "server")
        if key in state
        for record in state[key].audit.all()
    )
    snapshot = realm.network.metrics.snapshot()
    return {
        "outcomes": outcomes,
        "finale": finale(state),
        "audit": audit,
        "messages": snapshot.messages,
        "bytes": snapshot.bytes,
        "by_type": snapshot.by_type,
        "clock": realm.clock.now(),
    }


@pytest.mark.parametrize("figure", sorted(SCENARIOS))
def test_figure_reaches_identical_outcomes_in_both_runtimes(figure):
    sync = run_figure(figure, "sync")
    aio = run_figure(figure, "aio")
    assert len(sync["outcomes"]) == UNITS and all(sync["outcomes"])
    # Compare field by field so a mismatch names what diverged.
    for key in sync:
        assert aio[key] == sync[key], f"{figure}: {key} diverged"


def test_aio_runs_are_self_deterministic():
    # Two identically-seeded aio runs must match each other too — the
    # queue hop may not introduce ordering noise of its own.
    first = run_figure("fig5", "aio")
    second = run_figure("fig5", "aio")
    assert first == second


def test_fig5_finale_balances_conserve():
    outcome = run_figure("fig5", "aio")
    paid = sum(unit["paid"] for unit in outcome["outcomes"])
    books = outcome["finale"]
    assert books["bank-b"]["payee-0"] == {"dollars": paid}
    assert books["bank-a"]["payor-0"] == {"dollars": 10_000 - paid}
