"""WAL framing, snapshots, and the durability store primitives.

The byte format (``repro.ledger.wal``) must round-trip cleanly, stop at
the first torn record, and never reuse a record boundary; the store
(``repro.durability``) must compact, recover snapshot-then-WAL, and
report problems instead of silently dropping state.
"""

import os

import pytest

from repro.durability import DurabilityStore
from repro.durable import Durable
from repro.ledger import wal
from repro.ledger.posting import (
    CREDIT,
    DEBIT,
    HOLD,
    Leg,
    Posting,
    credit,
    place_hold,
    usage_charge,
)
from repro.clock import SimulatedClock
from repro.core.replay import AcceptOnceRegistry
from repro.encoding.identifiers import PrincipalId
from repro.errors import WireSchemaError
from repro.ledger.accounts import Account
from repro.ledger.ledger import Ledger


def append(path, payload):
    """Append one record through a log handle of its own."""
    with open(path, "ab") as handle:
        wal.append_record(handle, payload)


class TestFraming:
    def test_round_trip_many_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        payloads = [{"kind": "t", "data": {"n": i}} for i in range(20)]
        for payload in payloads:
            append(path, payload)
        records, torn = wal.read_records(path)
        assert records == payloads
        assert torn == 0

    def test_missing_file_is_empty_log(self, tmp_path):
        assert wal.read_records(str(tmp_path / "absent.log")) == ([], 0)

    def test_oversized_record_rejected(self):
        with pytest.raises(wal.WalError):
            wal.frame({"blob": b"x" * (wal.MAX_RECORD + 1)})

    def test_torn_payload_stops_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        append(path, {"n": 1})
        # A crash mid-append: header promises more payload than landed.
        with open(path, "ab") as handle:
            handle.write(wal.frame({"n": 2})[:-3])
        records, torn = wal.read_records(path)
        assert [r["n"] for r in records] == [1]
        assert torn == len(wal.frame({"n": 2})) - 3

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        append(path, {"n": 1})
        append(path, {"n": 2})
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        records, torn = wal.read_records(path)
        assert [r["n"] for r in records] == [1]
        assert torn == len(wal.frame({"n": 2}))

    def test_absurd_length_prefix_treated_as_torn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        append(path, {"n": 1})
        with open(path, "ab") as handle:
            handle.write(wal.HEADER.pack(wal.MAX_RECORD + 1, 0) + b"junk")
        records, torn = wal.read_records(path)
        assert [r["n"] for r in records] == [1]
        assert torn > 0

    def test_truncate_then_append_resumes_cleanly(self, tmp_path):
        path = str(tmp_path / "wal.log")
        append(path, {"n": 1})
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01half-a-record")
        _, torn = wal.read_records(path)
        wal.truncate(path, torn)
        append(path, {"n": 2})
        records, torn = wal.read_records(path)
        assert [r["n"] for r in records] == [1, 2]
        assert torn == 0


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "snapshot.bin")
        wal.write_snapshot(path, {"components": {"x": {"a": 1}}})
        assert wal.read_snapshot(path) == {"components": {"x": {"a": 1}}}

    def test_missing_is_none(self, tmp_path):
        assert wal.read_snapshot(str(tmp_path / "absent.bin")) is None

    def test_garbage_is_none(self, tmp_path):
        path = str(tmp_path / "snapshot.bin")
        with open(path, "wb") as handle:
            handle.write(b"not a framed record")
        assert wal.read_snapshot(path) is None

    def test_replace_is_atomic_no_tmp_left(self, tmp_path):
        path = str(tmp_path / "snapshot.bin")
        wal.write_snapshot(path, {"v": 1})
        wal.write_snapshot(path, {"v": 2})
        assert wal.read_snapshot(path) == {"v": 2}
        assert not os.path.exists(path + ".tmp")


class TestPostingWire:
    def test_transfer_round_trip(self):
        posting = usage_charge("alice", "revenue", "dollars", 30)
        again = Posting.from_wire(posting.to_wire())
        assert again == posting

    def test_hold_leg_round_trip(self):
        payee = PrincipalId("carol", "REALM")
        posting = Posting(
            legs=(
                Leg(
                    account="alice",
                    side=DEBIT,
                    currency="dollars",
                    amount=5,
                ),
                Leg(
                    account="alice",
                    side=CREDIT,
                    currency="dollars",
                    amount=5,
                    bucket=HOLD,
                    hold_id="ck-1",
                    hold_payee=payee,
                    hold_expires_at=900.0,
                ),
            ),
            kind="certify",
        )
        again = Posting.from_wire(posting.to_wire())
        assert again == posting
        assert again.legs[1].hold_payee == payee


class _Component(Durable):
    """A dict-backed component for exercising the store seams."""

    SNAPSHOT = "component"
    RECORDS = ("put",)

    def __init__(self):
        self.state = {}

    def put(self, key, value):
        self.state[key] = value
        self.wal.append("put", {"key": key, "value": value})

    def replay(self, kind, data):
        self.state[data["key"]] = data["value"]

    def capture_state(self):
        return dict(self.state)

    def restore_state(self, state):
        self.state.update(state)


class _Exploding(Durable):
    SNAPSHOT = "exploding"
    RECORDS = ("boom",)

    def replay(self, kind, data):
        raise RuntimeError("bad record")


class TestDurabilityStore:
    def build(self, tmp_path, **kwargs):
        store = DurabilityStore(str(tmp_path / "srv"), **kwargs)
        component = _Component()
        store.attach(component)
        return store, component

    def test_recover_replays_wal(self, tmp_path):
        store, component = self.build(tmp_path)
        component.put("a", 1)
        component.put("b", 2)
        # A new process: same directory, empty memory.
        store2, component2 = self.build(tmp_path)
        report = store2.recover()
        assert component2.state == {"a": 1, "b": 2}
        assert report.replayed == {"put": 2}
        assert report.ok

    def test_auto_compaction_folds_wal_into_snapshot(self, tmp_path):
        store, component = self.build(tmp_path, snapshot_every=3)
        for i in range(7):
            component.put(f"k{i}", i)
        assert store.compactions == 2
        # Only the post-compaction tail remains in the log.
        records, _ = wal.read_records(store.wal_path)
        assert len(records) == 1
        store2, component2 = self.build(tmp_path, snapshot_every=3)
        report = store2.recover()
        assert report.snapshot_restored
        assert report.replayed == {"put": 1}
        assert component2.state == {f"k{i}": i for i in range(7)}

    def test_replay_does_not_relog(self, tmp_path):
        store, component = self.build(tmp_path)
        component.put("a", 1)
        size = os.path.getsize(store.wal_path)
        store2, _ = self.build(tmp_path)
        store2.recover()
        assert os.path.getsize(store2.wal_path) == size

    def test_torn_tail_truncated_and_reported(self, tmp_path):
        store, component = self.build(tmp_path)
        component.put("a", 1)
        with open(store.wal_path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x20torn")
        store2, component2 = self.build(tmp_path)
        report = store2.recover()
        assert report.torn_bytes == 8
        assert report.ok
        assert component2.state == {"a": 1}
        # The log is clean again: appends resume on a record boundary.
        component2.put("b", 2)
        records, torn = wal.read_records(store2.wal_path)
        assert torn == 0 and len(records) == 2

    def test_unknown_kind_is_a_problem(self, tmp_path):
        store, component = self.build(tmp_path)
        store.append("mystery", {"x": 1})
        store2, _ = self.build(tmp_path)
        report = store2.recover()
        assert not report.ok
        assert "mystery" in report.problems[0]

    def test_failing_handler_is_a_problem_not_a_crash(self, tmp_path):
        store, component = self.build(tmp_path)
        component.put("a", 1)
        store.append("boom", {})
        store2, component2 = self.build(tmp_path)
        store2.attach(_Exploding())
        report = store2.recover()
        assert component2.state == {"a": 1}
        assert any("boom" in p for p in report.problems)

    def test_recovery_counts_toward_next_compaction(self, tmp_path):
        store, component = self.build(tmp_path, snapshot_every=3)
        component.put("a", 1)
        component.put("b", 2)
        store2, component2 = self.build(tmp_path, snapshot_every=3)
        store2.recover()
        component2.put("c", 3)
        # 2 replayed + 1 fresh reaches the threshold.
        assert store2.compactions == 1

    def test_compaction_truncates_through_the_held_handle(self, tmp_path):
        store, component = self.build(tmp_path, snapshot_every=0)
        component.put("a", 1)
        component.put("b", 2)
        store.compact()
        component.put("c", 3)
        records, torn = wal.read_records(store.wal_path)
        assert records == [{"kind": "put", "data": {"key": "c", "value": 3}}]
        assert torn == 0
        store2, component2 = self.build(tmp_path)
        report = store2.recover()
        assert report.snapshot_restored and report.replayed == {"put": 1}
        assert component2.state == component.state

    def test_reopen_closes_the_handle_and_the_successor_appends(self, tmp_path):
        store, component = self.build(tmp_path)
        component.put("a", 1)
        handle = store._handle
        successor = store.reopen()
        assert handle.closed and store._handle is None
        component2 = _Component()
        successor.attach(component2)
        successor.recover()
        component2.put("b", 2)
        records, _ = wal.read_records(store.wal_path)
        assert [r["data"]["key"] for r in records] == ["a", "b"]
        assert successor.wal_path == store.wal_path

    def test_appends_open_the_log_once(self, tmp_path, monkeypatch):
        store, component = self.build(tmp_path)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if file == store.wal_path:
                opened.append(args)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        for i in range(10):
            component.put(f"k{i}", i)
        assert opened == [("ab",)]
        assert len(wal.read_records(store.wal_path)[0]) == 10

    @pytest.mark.parametrize("sync, fsyncs", [(True, 5), (False, 0)])
    def test_sync_fsyncs_once_per_append(
        self, tmp_path, monkeypatch, sync, fsyncs
    ):
        store, component = self.build(tmp_path, snapshot_every=0, sync=sync)
        synced = []
        monkeypatch.setattr(wal.os, "fsync", synced.append)
        for i in range(5):
            component.put(f"k{i}", i)
        assert synced == [store._handle.fileno()] * fsyncs


class TestRecordsAreDeclared:
    """A ledger or accept-once record is decoded by its declaration: a
    changed value is refused on replay, never coerced (``int()`` made
    ``amount: 2.9`` a posting of 2, and ``"7"`` one of 7; ``float()`` kept
    a check number ``"1e12"`` seconds)."""

    @staticmethod
    def ledger():
        owner = PrincipalId("alice", "REALM")
        return Ledger(
            {n: Account.open(n, owner) for n in ("a", "b")},
            SimulatedClock(1000.0),
        )

    @pytest.mark.parametrize("amount", [2.9, "7", True])
    def test_a_coercible_amount_is_not_replayed(self, amount):
        source = self.ledger()
        record = source.post(
            Posting(legs=(credit("a", "usd", 5),), kind="mint")
        )
        wire = source.record_to_wire(record).to_wire()
        wire["posting"]["legs"][0]["amount"] = amount
        target = self.ledger()
        with pytest.raises(WireSchemaError, match=r"Leg\.amount"):
            target.replay("posting", wire)
        assert target.accounts["a"].balances == {}
        assert len(target) == 0

    def test_a_snapshot_hold_is_decoded_by_its_declaration(self):
        source = self.ledger()
        payee = PrincipalId("carol", "REALM")
        source.post(
            Posting(
                legs=(
                    credit("a", "usd", 5),
                    place_hold("a", "usd", 3, "ck-1", payee, 2000.0),
                ),
                kind="mint",
            )
        )
        state = source.capture_state()
        target = self.ledger()
        target.restore_state(state)
        assert target.accounts["a"].holds == source.accounts["a"].holds
        state["accounts"]["a"]["holds"][0]["amount"] = 3.0
        with pytest.raises(WireSchemaError, match=r"Hold\.amount"):
            self.ledger().restore_state(state)

    # -- accept-once registrations ------------------------------------------

    ALICE = PrincipalId("alice", "REALM")

    @staticmethod
    def accept_record(**change):
        record = {
            "kind": "once", "grantor": "alice@REALM", "identifier": "ck-1",
            "expires_at": 2000.0, "used": 1,
        }
        return {**record, **change}

    @pytest.mark.parametrize(
        "change",
        [
            {"expires_at": "1e12"},
            {"expires_at": 2000},
            {"used": 2.9},
            {"used": True},
            {"used": 0},
            {"identifier": 7},
            {"kind": "twice"},
        ],
        ids=["expiry-str", "expiry-int", "used-float", "used-bool",
             "used-zero", "identifier-int", "kind-unknown"],
    )
    def test_a_coerced_accept_record_is_not_replayed(self, change):
        registry = AcceptOnceRegistry(SimulatedClock(1000.0))
        with pytest.raises(WireSchemaError, match=r"AcceptRecord"):
            registry.replay("accept", self.accept_record(**change))
        assert len(registry) == 0
        registry.replay("accept", self.accept_record())
        assert not registry.register(self.ALICE, "ck-1", 2000.0)

    def test_an_accept_record_is_written_as_it_was(self, tmp_path):
        """The declaration writes the keys and values the hand-written
        record did, so a WAL from before it replays unchanged."""
        store = DurabilityStore(str(tmp_path / "srv"))
        registry = AcceptOnceRegistry(SimulatedClock(1000.0))
        store.attach(registry)
        registry.register(self.ALICE, "ck-1", 2000.0)
        registry.register_counted(self.ALICE, "use-1", 3000.0, limit=2)
        records, _ = wal.read_records(store.wal_path)
        assert [r["data"] for r in records] == [
            self.accept_record(),
            self.accept_record(
                kind="count", identifier="use-1", expires_at=3000.0
            ),
        ]

    def test_recovery_reports_a_refused_accept_record(self, tmp_path):
        store = DurabilityStore(str(tmp_path / "srv"))
        store.attach(AcceptOnceRegistry(SimulatedClock(1000.0)))
        store.append("accept", self.accept_record(expires_at="1e12"))
        store.append("accept", self.accept_record(identifier="ck-2"))
        reopened = store.reopen()
        registry = AcceptOnceRegistry(SimulatedClock(1000.0))
        reopened.attach(registry)
        report = reopened.recover()
        assert report.replayed == {"accept": 1}
        assert len(report.problems) == 1
        assert "AcceptRecord.expires_at" in report.problems[0]
        assert list(registry._seen) == [(self.ALICE, "ck-2")]

    @pytest.mark.parametrize(
        "name, row",
        [
            ("seen", ["alice@REALM", "ck-1", "1e12"]),
            ("seen", ["alice@REALM", "ck-1"]),
            ("counts", ["alice@REALM", "use-1", 2.9, 2000.0]),
            ("counts", ["alice@REALM", "use-1", 2000.0, 2]),
            ("counts", {"grantor": "alice@REALM"}),
        ],
        ids=["expiry-str", "short", "used-float", "swapped", "not-a-list"],
    )
    def test_a_wrong_typed_snapshot_row_is_refused(self, name, row):
        source = AcceptOnceRegistry(SimulatedClock(1000.0))
        source.register(self.ALICE, "ck-1", 2000.0)
        source.register_counted(self.ALICE, "use-1", 2000.0, limit=3)
        state = source.capture_state()
        target = AcceptOnceRegistry(SimulatedClock(1000.0))
        target.restore_state(state)
        assert target.capture_state() == state
        state[name] = [row]
        with pytest.raises(WireSchemaError, match=r"AcceptRecord"):
            AcceptOnceRegistry(SimulatedClock(1000.0)).restore_state(state)
