"""The five workloads: which public scenario, how many principals, which runtime.

Four drive the scenario classes of :data:`repro.workloads.load.SCENARIOS`
unchanged (``fig5`` only gains a :class:`DurabilityStore` per bank); the
fifth, :class:`TransferWal`, is defined here.  All are closed loop: a
client sends its next request only when the previous one returned.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.durability import DurabilityStore
from repro.errors import ReproError
from repro.services.checks import ACCOUNT_TARGET_PREFIX
from repro.testbed import Realm
from repro.workloads.load import (
    SCENARIOS,
    Fig5Scenario,
    LoadConfig,
    LoadScenario,
)

#: aio inbox drain window (the load generator's default).
MAX_BATCH = 64


def open_store(
    data_dir: str, server: str, snapshot_every: int
) -> DurabilityStore:
    """The durable servers' store; also what a restart recovers from.

    Flush policy: ``sync=False`` — appends reach the OS page cache,
    snapshots are fsynced."""
    return DurabilityStore(
        os.path.join(data_dir, server),
        snapshot_every=snapshot_every,
        sync=False,
        server=server,
    )


class DurableFig5(Fig5Scenario):
    """``fig5`` with both banks writing a WAL (ROADMAP's headline path)."""

    #: state key -> server name, for the post-run restart.
    DURABLE = {"bank_a": "bank-a", "bank_b": "bank-b"}
    #: Append-only, no automatic compaction.  With ``snapshot_every=512``
    #: a compaction triggered by the accept-once append *inside* a debit
    #: RPC snapshots the ledger's applied-but-uncommitted postings; their
    #: commit then lands in the fresh WAL and recovery applies them twice
    #: (the restart-parity check below caught it; see "Findings" in
    #: perf/README.md).  Compaction cost is ``transfer-wal``'s subject,
    #: where it fires only at commit.
    SNAPSHOT_EVERY = 0

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        return {
            key: realm.accounting_server(
                name,
                durability=open_store(self.data_dir, name, self.SNAPSHOT_EVERY),
            )
            for key, name in self.DURABLE.items()
        }


class TransferWal(LoadScenario):
    """Same-bank transfers between a principal's own two accounts.

    One durable bank used as a write-heavy poster: each op is one
    Kerberos-session RPC, one two-leg posting, and two WAL appends
    (posting + audit record), so the store's append/compact path is a
    large share of the op instead of the 1-2 % it is under ``fig5``.
    """

    name = "transfer-wal"
    DURABLE = {"bank": "bank"}
    #: WAL appends between compactions (the store's default).
    SNAPSHOT_EVERY = 512
    #: Enough that no stream of 1..100 transfers can overdraw an account.
    INITIAL = 10**12

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        bank = realm.accounting_server(
            "bank",
            durability=open_store(self.data_dir, "bank", self.SNAPSHOT_EVERY),
        )
        return {"bank": bank, "views": []}

    def principal(self, realm, config, state, i):
        bank = state["bank"]
        user = realm.user(f"p{i}")
        for side in ("a", "b"):
            bank.create_account(
                f"{side}-{i}", user.principal, {"dollars": self.INITIAL}
            )
        client = user.accounting_client(bank.principal)
        client.service.establish_session()
        # The principal's own view of its two balances, checked against
        # every reply and, after the run, against the bank's books.
        view = {"a": self.INITIAL, "b": self.INITIAL}
        state["views"].append(view)
        return (client, view)

    def op(self, realm, config, state, pstate, i, k):
        client, expected = pstate
        amount = 1 + k % 100
        source, destination = ("a", "b") if (k >> 8) & 1 else ("b", "a")
        reply = client.service.request(
            "transfer",
            target=f"{ACCOUNT_TARGET_PREFIX}{source}-{i}",
            args={
                "to": f"{destination}-{i}",
                "currency": "dollars",
                "amount": amount,
            },
        )
        expected[source] -= amount
        expected[destination] += amount
        got = (int(reply["from_balance"]), int(reply["to_balance"]))
        if got != (expected[source], expected[destination]):
            raise ReproError(
                f"transfer reply balances {got} != expected "
                f"{(expected[source], expected[destination])}"
            )

    def check(self, realm, config, state, ops_ok):
        bank = state["bank"]
        problems = list(bank.ledger.audit_discrepancies())
        for i, view in enumerate(state["views"]):
            for side, expected in view.items():
                booked = bank.accounts[f"{side}-{i}"].balance("dollars")
                if booked != expected:
                    problems.append(
                        f"account {side}-{i} holds {booked}, its owner "
                        f"expects {expected}"
                    )
        return problems


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``BENCHMARK.json`` records why it exists."""

    name: str
    #: ``data_dir -> scenario``; only durable scenarios use the directory.
    scenario: Callable[[str], LoadScenario]
    principals: int
    runtime: str = "sync"
    #: Closed-loop client threads (sync delivery is single-threaded).
    clients: int = 1


def _stock(name: str) -> Callable[[str], LoadScenario]:
    return lambda data_dir: SCENARIOS[name]()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # HMAC/Kerberos only, zero Schnorr: encode + seal/unseal dominate.
        Workload("authz-fig3", _stock("fig3"), principals=200),
        # One 2048-bit Schnorr sign + one verify per op; encoding is noise.
        Workload("cascade-fig4", _stock("fig4"), principals=20),
        # Sign-dominated check clearing with both banks durable.
        Workload("checks-fig5", DurableFig5, principals=100),
        # Three small-group verifies per op through verify_batch/prefetch;
        # the only workload that crosses the aio inboxes.
        Workload(
            "pkverify-aio",
            _stock("pk-verify"),
            principals=200,
            runtime="aio",
            clients=min(2, os.cpu_count() or 1),
        ),
        # WAL append/compact is a large share; Schnorr is absent.
        Workload("transfer-wal", TransferWal, principals=100),
    )
}


@dataclass
class Bench:
    """A provisioned workload, ready to drive."""

    workload: Workload
    realm: Realm
    config: LoadConfig
    scenario: LoadScenario
    state: dict
    pstates: list
    data_dir: str


def build(workload: Workload, seed: int, principals: int, data_dir: str) -> Bench:
    """Provision the realm exactly as ``python -m repro load`` does:
    sequential, undilated, sessions established before the clock starts."""
    config = LoadConfig(
        scenario=workload.name,
        principals=principals,
        concurrency=workload.clients,
        mode=workload.runtime,
        seed=seed,
        time_dilation=0.0,
        max_batch=MAX_BATCH,
    )
    realm = Realm(
        seed=b"perf-%d" % seed,
        real_time=True,
        runtime=workload.runtime,
        max_batch=MAX_BATCH,
        request_timeout=config.request_timeout,
    )
    scenario = workload.scenario(data_dir)
    state = scenario.setup(realm, config)
    pstates = [
        scenario.principal(realm, config, state, i) for i in range(principals)
    ]
    return Bench(workload, realm, config, scenario, state, pstates, data_dir)


def durable_stores(bench: Bench) -> List[DurabilityStore]:
    durable = getattr(bench.scenario, "DURABLE", {})
    return [bench.state[key].durability for key in durable]


def restart_parity(bench: Bench) -> Tuple[List[str], float, int]:
    """Crash-restart every durable server from its directory.

    Returns ``(problems, restart seconds, WAL records replayed)``; the
    recovered balances must equal the live ones and recovery must report
    no problems.
    """
    problems: List[str] = []
    seconds = 0.0
    replayed = 0
    for key, name in getattr(bench.scenario, "DURABLE", {}).items():
        live = bench.state[key]
        before = {n: dict(a.balances) for n, a in live.accounts.items()}
        bench.realm.network.unregister(live.principal)
        start = time.perf_counter()
        recovered = bench.realm.restart_accounting_server(
            name,
            durability=open_store(
                bench.data_dir, name, bench.scenario.SNAPSHOT_EVERY
            ),
        )
        seconds += time.perf_counter() - start
        bench.state[key] = recovered
        after = {n: dict(a.balances) for n, a in recovered.accounts.items()}
        if after != before:
            differing = sorted(
                n for n in before.keys() | after.keys()
                if before.get(n) != after.get(n)
            )
            problems.append(
                f"{name}: recovered balances differ from live on "
                f"{len(differing)} accounts (first: {differing[0]})"
            )
        report = recovered.recovery
        replayed += report.total_replayed
        problems.extend(f"{name} recovery: {p}" for p in report.problems)
        problems.extend(
            f"{name} recovered ledger: {p}"
            for p in recovered.ledger.audit_discrepancies()
        )
    return problems, seconds, replayed
