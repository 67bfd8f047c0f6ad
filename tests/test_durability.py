"""Exactly-once guarantees must survive a crash-restart (the PR's bugfix).

Before the WAL, every exactly-once registry — the response cache keyed by
``_rid``, the accept-once registry holding paid check numbers and consumed
presentation proofs — lived in process memory and silently died with the
process.  A resent request re-ran its handler; a paid check cleared twice.
The tests here pin both failure modes (against servers *without*
durability, simulating what a crash does to process memory) and prove the
WAL-backed registries close them: a server rebuilt from its store still
answers resends from cache and still rejects reused check numbers.
"""

import pytest

from repro.clock import SimulatedClock
from repro.durability import DurabilityStore
from repro.encoding.canonical import decode, encode
from repro.encoding.identifiers import PrincipalId
from repro.errors import ReplayError
from repro.ledger import MINT, Account, Ledger, Posting, credit, wal
from repro.net.message import raise_if_error
from repro.resil.dedupe import ResponseCache
from repro.testbed import Realm


class RecordingWal:
    """Stands in for a store: keeps what a component appends."""

    def __init__(self):
        self.records = []

    def append(self, kind, data):
        # What replay gets back from the log: the decoded record.
        self.records.append((kind, decode(encode(data))))


def build_world(tmp_path, seed, durable=True):
    """A resilient realm with one durable bank and two funded users."""
    realm = Realm(seed=seed, resilience=True)
    alice = realm.user("alice")
    bob = realm.user("bob")
    kwargs = {}
    if durable:
        kwargs["durability"] = DurabilityStore(str(tmp_path / "bank"))
    bank = realm.accounting_server("bank", **kwargs)
    bank.create_account("alice", alice.principal, {"dollars": 100})
    bank.create_account("bob", bob.principal)
    return realm, alice, bob, bank


def crash_restart(realm, tmp_path, name="bank"):
    """What a crash-restart does: new process, same directory on disk."""
    realm.network.unregister(realm.principal(name))
    return realm.restart_accounting_server(
        name, durability=DurabilityStore(str(tmp_path / name))
    )


def capture_requests(realm, destination):
    """Tap the fabric for ``request`` messages bound for ``destination``."""
    captured = []

    def tap(message):
        if (
            message.destination == destination
            and message.msg_type == "request"
            and "_rid" in message.payload
        ):
            captured.append(message)

    realm.network.add_tap(tap)
    return captured


class TestResentRidAcrossRestart:
    def test_bug_crash_forgets_answered_requests_and_double_debits(self):
        """The pre-WAL failure mode, pinned: wiping the in-memory
        registries (exactly what a crash did before this PR) makes a
        byte-identical resend re-run the handler and debit twice."""
        realm, alice, bob, bank = build_world(None, b"durab-bug", durable=False)
        captured = capture_requests(realm, bank.principal)
        alice.accounting_client(bank.principal).transfer(
            "alice", "bob", "dollars", 30
        )
        assert len(captured) == 1
        assert bank.accounts["alice"].balance("dollars") == 70
        # A crash takes process memory with it: both exactly-once
        # registries vanish while the books (imagine them durable) stay.
        bank.dedupe._entries.clear()
        registry = bank.acceptor.verifier.accept_once
        registry._seen.clear()
        registry._counts.clear()
        bank.ledger._dedupe.clear()
        raise_if_error(bank.handle(captured[0]))
        # Debited twice for one logical transfer — the bug this PR closes.
        assert bank.accounts["alice"].balance("dollars") == 40

    def test_fix_resend_after_restart_answered_from_durable_cache(
        self, tmp_path
    ):
        realm, alice, bob, bank = build_world(tmp_path, b"durab-rid")
        captured = capture_requests(realm, bank.principal)
        alice.accounting_client(bank.principal).transfer(
            "alice", "bob", "dollars", 30
        )
        assert len(captured) == 1
        bank2 = crash_restart(realm, tmp_path)
        assert bank2.recovery is not None and bank2.recovery.ok
        before_hits = bank2.dedupe.hits
        raise_if_error(bank2.handle(captured[0]))
        # Answered from the recovered response cache — not re-executed.
        assert bank2.dedupe.hits == before_hits + 1
        assert bank2.accounts["alice"].balance("dollars") == 70
        assert bank2.accounts["bob"].balance("dollars") == 30


class TestPaidChecksAcrossRestart:
    def write_and_deposit(self, alice, bob, bank):
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 10
        )
        bob.accounting_client(bank.principal).deposit_check(check, "bob")
        return check

    def test_bug_crash_forgets_paid_checks(self):
        realm, alice, bob, bank = build_world(
            None, b"durab-check-bug", durable=False
        )
        check = self.write_and_deposit(alice, bob, bank)
        assert bank.accounts["alice"].balance("dollars") == 90
        registry = bank.acceptor.verifier.accept_once
        registry._seen.clear()
        registry._counts.clear()
        # §4 says the number is kept "until the expiration time on the
        # check" — but memory alone forgot it at the first crash, and the
        # same check clears a second time.
        bob.accounting_client(bank.principal).deposit_check(check, "bob")
        assert bank.accounts["alice"].balance("dollars") == 80

    def test_fix_reused_check_number_rejected_after_restart(self, tmp_path):
        realm, alice, bob, bank = build_world(tmp_path, b"durab-check")
        check = self.write_and_deposit(alice, bob, bank)
        bank2 = crash_restart(realm, tmp_path)
        assert bank2.recovery is not None and bank2.recovery.ok
        with pytest.raises(ReplayError):
            bob.accounting_client(bank2.principal).deposit_check(
                check, "bob"
            )
        assert bank2.accounts["alice"].balance("dollars") == 90
        assert bank2.accounts["bob"].balance("dollars") == 10
        # The recovered books balance: conservation is machine-checked.
        assert bank2.ledger.audit_discrepancies() == []


class TestRecoveredBooks:
    def test_balances_and_audit_survive_restart(self, tmp_path):
        realm, alice, bob, bank = build_world(tmp_path, b"durab-books")
        client = alice.accounting_client(bank.principal)
        for amount in (5, 7, 11):
            client.transfer("alice", "bob", "dollars", amount)
        audit_len = len(bank.audit)
        bank2 = crash_restart(realm, tmp_path)
        assert bank2.recovery is not None and bank2.recovery.ok
        assert bank2.accounts["alice"].balance("dollars") == 77
        assert bank2.accounts["bob"].balance("dollars") == 23
        # Audit parity: the trail is part of the durable state.
        assert len(bank2.audit) == audit_len
        assert bank2.ledger.audit_discrepancies() == []

    def test_restart_survives_compaction(self, tmp_path):
        realm = Realm(seed=b"durab-compact", resilience=True)
        alice = realm.user("alice")
        bob = realm.user("bob")
        store = DurabilityStore(str(tmp_path / "bank"), snapshot_every=10)
        bank = realm.accounting_server("bank", durability=store)
        bank.create_account("alice", alice.principal, {"dollars": 1000})
        bank.create_account("bob", bob.principal)
        client = alice.accounting_client(bank.principal)
        for _ in range(12):
            client.transfer("alice", "bob", "dollars", 1)
        assert store.compactions >= 1
        realm.network.unregister(realm.principal("bank"))
        bank2 = realm.restart_accounting_server(
            "bank",
            durability=DurabilityStore(
                str(tmp_path / "bank"), snapshot_every=10
            ),
        )
        assert bank2.recovery is not None and bank2.recovery.ok
        assert bank2.recovery.snapshot_restored
        assert bank2.accounts["alice"].balance("dollars") == 988
        assert bank2.accounts["bob"].balance("dollars") == 12
        assert bank2.ledger.audit_discrepancies() == []

    def test_file_server_restart_survives_compaction(self, tmp_path):
        """Files and owner grants come back from the snapshot, not the log."""
        realm = Realm(seed=b"durab-files", resilience=True)
        alice = realm.user("alice")
        store = DurabilityStore(str(tmp_path / "files"), snapshot_every=3)
        fs = realm.file_server("files", durability=store)
        fs.grant_owner(alice.principal)
        for k in range(7):
            fs.put(f"doc{k}.txt", b"contents of doc %d" % k)
        assert store.compactions == 2
        realm.network.unregister(realm.principal("files"))
        fs2 = realm.restart_file_server(
            "files",
            durability=DurabilityStore(
                str(tmp_path / "files"), snapshot_every=3
            ),
        )
        assert fs2.recovery is not None and fs2.recovery.problems == []
        assert fs2.recovery.snapshot_restored
        assert sorted(fs2.files) == [f"doc{k}.txt" for k in range(7)]
        client = alice.client_for(fs2.principal)
        for k in (0, 6):
            reply = client.request("read", f"doc{k}.txt")
            assert reply["data"] == b"contents of doc %d" % k

    def test_torn_final_append_is_truncated_not_replayed(self, tmp_path):
        realm, alice, bob, bank = build_world(tmp_path, b"durab-torn")
        alice.accounting_client(bank.principal).transfer(
            "alice", "bob", "dollars", 30
        )
        # Corruption injection: a crash mid-append leaves half a record.
        path = bank.durability.wal_path
        with open(path, "ab") as handle:
            handle.write(wal.frame({"kind": "posting", "data": {}})[:-5])
        bank2 = crash_restart(realm, tmp_path)
        assert bank2.recovery is not None and bank2.recovery.ok
        assert bank2.recovery.torn_bytes > 0
        assert bank2.accounts["alice"].balance("dollars") == 70
        # The truncated log accepts appends again.
        alice.accounting_client(bank2.principal).transfer(
            "alice", "bob", "dollars", 5
        )
        records, torn = wal.read_records(bank2.durability.wal_path)
        assert torn == 0
        assert bank2.accounts["alice"].balance("dollars") == 65


class TestJournalTrim:
    def test_trim_is_counted_and_durability_is_unaffected(self, tmp_path):
        realm = Realm(seed=b"durab-trim", resilience=True)
        alice = realm.user("alice")
        bob = realm.user("bob")
        bank = realm.accounting_server(
            "bank", durability=DurabilityStore(str(tmp_path / "bank"))
        )
        bank.create_account("alice", alice.principal, {"dollars": 1000})
        bank.create_account("bob", bob.principal)
        bank.ledger.max_journal = 4
        client = alice.accounting_client(bank.principal)
        for _ in range(10):
            client.transfer("alice", "bob", "dollars", 1)
        # The bounded journal dropped records — visibly, not silently.
        assert bank.ledger.journal_trimmed > 0
        assert len(bank.ledger.journal) <= 4
        # Every committed posting reached the WAL before any trim: the
        # recovered books match even though the journal forgot them.
        realm.network.unregister(realm.principal("bank"))
        bank2 = realm.restart_accounting_server(
            "bank", durability=DurabilityStore(str(tmp_path / "bank"))
        )
        assert bank2.recovery is not None and bank2.recovery.ok
        assert bank2.accounts["alice"].balance("dollars") == 990
        assert bank2.accounts["bob"].balance("dollars") == 10
        assert bank2.ledger.audit_discrepancies() == []

    def test_trim_total_reaches_telemetry(self, tmp_path):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        realm = Realm(seed=b"durab-trim-obs", telemetry=telemetry)
        alice = realm.user("alice")
        bob = realm.user("bob")
        bank = realm.accounting_server("bank")
        bank.create_account("alice", alice.principal, {"dollars": 100})
        bank.create_account("bob", bob.principal)
        bank.ledger.max_journal = 2
        client = alice.accounting_client(bank.principal)
        for _ in range(5):
            client.transfer("alice", "bob", "dollars", 1)
        counter = telemetry.metrics.get("ledger.journal_trimmed_total")
        assert counter is not None
        assert bank.ledger.journal_trimmed >= 3


class TestRecoveredRetention:
    """A rebuilt retention table holds what the live one held, no more."""

    def test_wal_replay_keeps_the_live_dedupe_expiry(self):
        """A replayed dedupe key was held ``dedupe_window`` past the
        *recovery* time: until 1500 instead of 1300 after a 200 s gap."""
        owner = PrincipalId("alice", "TEST.ORG")

        def books(clock):
            return Ledger({"a": Account(name="a", owner=owner)}, clock)

        def held(ledger):
            return [
                (key, expires_at)
                for key, expires_at, *_
                in ledger.capture_state()["ledger"]["dedupe"]
            ]

        clock = SimulatedClock(1000.0)
        live = books(clock)
        live.wal = log = RecordingWal()
        live.post(
            Posting(legs=(credit("a", "usd", 5),), kind=MINT),
            dedupe_key="rid-1",
        )
        snapshot = live.capture_state()
        clock.advance(200.0)
        from_wal = books(clock)
        for kind, data in log.records:
            from_wal.replay(kind, data)
        from_snapshot = books(clock)
        from_snapshot.restore_state(snapshot)
        assert held(live) == [("rid-1", 1300.0)]
        assert held(from_wal) == held(from_snapshot) == held(live)

    def test_wal_replay_respects_the_response_cache_cap(self):
        """Restore never evicted: five replayed records left five live
        entries in a two-entry cache."""
        cache = ResponseCache(SimulatedClock(1000.0), max_entries=2)
        for i in range(5):
            cache.replay(
                "response",
                {"key": b"k%d" % i, "expires_at": 1100.0 + i,
                 "response": {"i": i}},
            )
        assert len(cache._entries) == 2
        kept = cache.capture_state()["entries"]
        assert [key for key, _, _ in kept] == [b"k3", b"k4"]


def test_every_append_writes_the_frame_of_its_wire_form(tmp_path, monkeypatch):
    """Records reach the store as their declarations and are encoded
    straight from them; the log holds exactly the frames their ``to_wire()``
    forms give — one fig5 clearing across two durable banks and one
    transfer round."""
    frames = {}
    append = DurabilityStore.append

    def expect(store, kind, data):
        wire_form = data if type(data) is dict else data.to_wire()
        frames.setdefault(store.wal_path, []).append(
            (kind, type(data), wal.frame({"kind": kind, "data": wire_form}))
        )
        append(store, kind, data)

    monkeypatch.setattr(DurabilityStore, "append", expect)
    realm = Realm(seed=b"wal-frames")
    alice, bob = realm.user("alice"), realm.user("bob")
    bank_a = realm.accounting_server(
        "bank-a", durability=DurabilityStore(str(tmp_path / "a"))
    )
    bank_b = realm.accounting_server(
        "bank-b", durability=DurabilityStore(str(tmp_path / "b"))
    )
    bank_a.create_account("alice", alice.principal, {"dollars": 100})
    bank_a.create_account("alice-2", alice.principal)
    bank_b.create_account("bob", bob.principal)
    payor = alice.accounting_client(bank_a.principal)
    check = payor.write_check("alice", bob.principal, "dollars", 10)
    paid = bob.accounting_client(bank_b.principal).deposit_check(check, "bob")
    assert paid["paid"] == 10
    payor.transfer("alice", "alice-2", "dollars", 5)

    kinds = set()
    for path, written in frames.items():
        with open(path, "rb") as handle:
            assert handle.read() == b"".join(frame for _, _, frame in written)
        kinds |= {(kind, kind_of) for kind, kind_of, _ in written}
    declared = {kind for kind, kind_of in kinds if kind_of is not dict}
    assert {"account", "posting", "accept", "audit"} <= declared
