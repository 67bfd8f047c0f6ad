"""Every durable component rebuilds the same state four ways.

A component attached to a :class:`DurabilityStore` must come back equal —
compared through its own ``capture_state()`` — to the live one it was
logged from, whether recovery reads the WAL alone, a snapshot alone, or a
snapshot plus the WAL tail written after it.  The response cache and the
file store are compacted by no product run, so this is where their
snapshot path is exercised.
"""

import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.audit import AuditLog
from repro.clock import SimulatedClock
from repro.core.replay import AcceptOnceRegistry
from repro.durability import DurabilityStore
from repro.encoding.identifiers import PrincipalId
from repro.ledger import (
    MINT,
    TRANSFER,
    Account,
    Ledger,
    Posting,
    credit,
    debit,
    place_hold,
)
from repro.resil.dedupe import ResponseCache
from repro.testbed import Realm

#: A bank and a file server store, and what recovering them must rebuild
#: (``make_durable_store.py`` next to it wrote all three).
STORE = Path(__file__).parent / "data" / "durable_store"
ALICE = PrincipalId("alice", "TEST.ORG")
BOB = PrincipalId("bob", "TEST.ORG")
FAR = 1e9


class Component:
    """One durable component: how to open it on a store, and two halves
    of deterministic mutations (the snapshot falls between them)."""

    def open(self, store):
        """A fresh component, on a fresh clock, attached to ``store`` and
        recovered from it."""
        self.clock = SimulatedClock(1000.0)
        component = self.make()
        store.attach(component)
        store.recover()
        return component


class AcceptOnce(Component):
    def make(self):
        return AcceptOnceRegistry(self.clock)

    def first(self, registry):
        registry.register(ALICE, "chk-1", FAR)
        registry.register_counted(ALICE, "use-1", FAR, limit=3)
        with registry.transaction():
            registry.register(BOB, "chk-2", FAR + 1)
            registry.register_counted(ALICE, "use-1", FAR, limit=3)

    def second(self, registry):
        with pytest.raises(RuntimeError):
            with registry.transaction():
                registry.register(BOB, "chk-rolled-back", FAR)
                raise RuntimeError("handler failed")
        registry.register_counted(ALICE, "use-1", FAR, limit=3)
        registry.register_counted(BOB, "use-2", FAR + 2, limit=1)
        registry.register(ALICE, "chk-3", FAR + 3)


class Responses(Component):
    def make(self):
        return ResponseCache(self.clock, window=FAR)

    def first(self, cache):
        cache.put(b"k1", {"ok": 1})
        self.clock.advance(1.0)
        cache.put(b"k2", {"ok": 2, "data": b"\x00\x01"})

    def second(self, cache):
        self.clock.advance(1.0)
        cache.put(b"k3", {"error": "refused"})
        cache.put(b"k1", {"ok": "again"})


class Audit(Component):
    def make(self):
        return AuditLog()

    @staticmethod
    def use(log, time, claimant, via, bearer, degraded=False):
        verified = SimpleNamespace(
            grantor=ALICE, claimant=claimant, audit_trail=via,
            bearer=bearer, degraded=degraded,
        )
        log.record(time, BOB, verified, "read", f"doc{time}")

    def first(self, log):
        self.use(log, 1.0, BOB, (), False)
        self.use(log, 2.0, None, (), True)

    def second(self, log):
        self.use(log, 3.0, BOB, (ALICE, BOB), False, degraded=True)


class Books(Component):
    def make(self):
        return Ledger({}, self.clock)

    def first(self, ledger):
        ledger.open_account(Account.open("alice", ALICE))
        ledger.open_account(Account.open("bob", BOB))
        ledger.post(Posting(legs=(credit("alice", "usd", 100),), kind=MINT))
        ledger.post(
            Posting(
                legs=(debit("alice", "usd", 30), credit("bob", "usd", 30)),
                kind=TRANSFER,
            ),
            dedupe_key="rid-1",
        )

    def second(self, ledger):
        ledger.post(
            Posting(
                legs=(
                    debit("alice", "usd", 10),
                    place_hold("alice", "usd", 10, "chk-9", BOB, FAR),
                ),
                kind=TRANSFER,
            ),
            dedupe_key="rid-2",
        )
        ledger.open_account(Account.open("carol", ALICE))
        ledger.post(Posting(legs=(credit("carol", "eur", 5),), kind=MINT))


class Files(Component):
    """The file server is its own component and attaches itself."""

    def open(self, store):
        realm = Realm(seed=b"durable-roundtrip")
        self.alice = realm.user("alice")
        return realm.file_server("files", durability=store)

    def first(self, fs):
        fs.grant_owner(self.alice.principal)
        fs.grant_owner(BOB, "shared/*")
        fs.put("doc1", b"one")
        fs.put("doc2", b"two")

    def second(self, fs):
        self.alice.client_for(fs.principal).request("delete", "doc1")
        fs.put("doc2", b"two, rewritten")
        fs.put("shared/notes", b"")


COMPONENTS = pytest.mark.parametrize(
    "case",
    [AcceptOnce, Responses, Audit, Books, Files],
    ids=["accept-once", "responses", "audit", "books", "files"],
)


def state(component):
    return component.capture_state()


@COMPONENTS
def test_live_state_recovers_four_ways(case, tmp_path):
    case = case()

    def store(name):
        return DurabilityStore(str(tmp_path / name), snapshot_every=0)

    # The same mutations twice: once logged to the WAL only, once with a
    # compaction between the halves.
    wal_only = store("wal")
    live = case.open(wal_only)
    case.first(live)
    case.second(live)
    expected = state(live)
    compacted = store("snap")
    other = case.open(compacted)
    case.first(other)
    compacted.compact()
    case.second(other)
    assert state(other) == expected

    assert state(case.open(wal_only.reopen())) == expected

    tail = compacted.reopen()
    assert state(case.open(tail)) == expected
    assert tail.recovered.snapshot_restored
    assert tail.recovered.total_replayed > 0

    compacted.compact()
    snapshot_only = compacted.reopen()
    assert state(case.open(snapshot_only)) == expected
    assert snapshot_only.recovered.snapshot_restored
    assert snapshot_only.recovered.total_replayed == 0

    for reopened in (wal_only, tail, snapshot_only):
        assert reopened.recovered.problems == []


def test_attach_refuses_a_claimed_record_kind_or_snapshot_name(tmp_path):
    clock = SimulatedClock(1000.0)
    store = DurabilityStore(str(tmp_path / "store"))
    store.attach(AcceptOnceRegistry(clock))
    with pytest.raises(ValueError, match=r"\['accept', 'accept_once'\]"):
        store.attach(AcceptOnceRegistry(clock))

    class SameSnapshot(ResponseCache):
        RECORDS = ("other",)
        SNAPSHOT = "accept_once"

    class SameKind(ResponseCache):
        RECORDS = ("response", "accept")

    with pytest.raises(ValueError, match=r"\['accept_once'\]"):
        store.attach(SameSnapshot(clock))
    with pytest.raises(ValueError, match=r"\['accept'\]"):
        store.attach(SameKind(clock))
    # A refused component is not attached: it still logs nowhere.
    refused = SameKind(clock)
    with pytest.raises(ValueError):
        store.attach(refused)
    refused.put(b"k", {})
    assert store.appends == 0


def test_a_committed_store_still_recovers(tmp_path):
    """The on-disk format is a contract: a store written before the
    components owned their records replays to the state it recorded."""
    shutil.copytree(STORE, tmp_path / "store")
    expected = json.loads((STORE / "expected.json").read_text())
    realm = Realm(seed=b"durable-store-recovery", resilience=True)

    def store(name):
        return DurabilityStore(str(tmp_path / "store" / name))

    bank = realm.accounting_server("bank-a", durability=store("bank-a"))
    files = realm.file_server("files", durability=store("files"))
    assert bank.recovery.snapshot_restored
    for server, want in ((bank, expected["bank-a"]), (files, expected["files"])):
        assert server.recovery.problems == []
        assert len(server.audit) == want["audit_records"]
        assert server.verifier.accept_once.capture_state() == want["accept_once"]
        assert len(server.dedupe.capture_state()["entries"]) == want["responses"]
    assert {
        name: dict(account.balances) for name, account in bank.accounts.items()
    } == expected["bank-a"]["balances"]
    assert bank.ledger.audit_discrepancies() == []
    assert {
        path: data.decode() for path, data in files.files.items()
    } == expected["files"]["files"]
    assert [
        [str(entry.subject.principal), list(entry.targets)]
        for entry in files.acl.entries
    ] == expected["files"]["owners"]
