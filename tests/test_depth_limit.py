"""Nesting depth is bounded, and exceeding it is a typed error.

A 25 kB frame of 5000 nested lists used to take ``canonical.decode`` —
and whatever called it — down with ``RecursionError``.  ``MAX_DEPTH``
makes it ``DecodingError``/``EncodingError``, which every caller already
handles: the WAL scan stops there, a service answers with an error reply.
"""

import struct
import zlib

import pytest

from repro.core.certificate import ProxyCertificate
from repro.durability import DurabilityStore
from repro.encoding import canonical
from repro.encoding.canonical import MAX_DEPTH, decode, encode, encoded_size
from repro.encoding.identifiers import PrincipalId
from repro.errors import DecodingError, EncodingError, ServiceError
from repro.ledger import wal
from repro.net.message import is_error, raise_if_error
from repro.net.network import Network
from repro.net.service import Service
from repro.workloads.load import SCENARIOS, run_figure
from repro.testbed import Realm

TOO_DEEP = [MAX_DEPTH + 1, 5000]


def nested_list_frame(depth):
    """``depth`` lists inside one another, built by hand (no recursion)."""
    frame = b""
    for _ in range(depth):
        frame = b"L" + struct.pack(">I", len(frame)) + frame
    return frame


def nested_list(depth):
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


def nested_dict(depth):
    value = {}
    for _ in range(depth - 1):
        value = {"k": value}
    return value


class TestCodec:
    @pytest.mark.parametrize("nest", [nested_list, nested_dict])
    def test_max_depth_round_trips(self, nest):
        value = nest(MAX_DEPTH)
        assert decode(encode(value)) == value

    def test_hand_built_frame_is_the_encoding(self):
        assert nested_list_frame(MAX_DEPTH) == encode(nested_list(MAX_DEPTH))

    @pytest.mark.parametrize("depth", TOO_DEEP)
    def test_decode_refuses_with_decoding_error(self, depth):
        with pytest.raises(DecodingError, match="nesting deeper than 64"):
            decode(nested_list_frame(depth))

    @pytest.mark.parametrize("depth", TOO_DEEP)
    @pytest.mark.parametrize("nest", [nested_list, nested_dict])
    def test_encode_refuses_with_encoding_error(self, nest, depth):
        with pytest.raises(EncodingError, match="nesting deeper than 64"):
            encode(nest(depth))

    @pytest.mark.parametrize("nest", [nested_list, nested_dict])
    def test_max_depth_is_sized(self, nest):
        value = nest(MAX_DEPTH)
        assert encoded_size(value) == len(encode(value))

    @pytest.mark.parametrize("depth", TOO_DEEP)
    @pytest.mark.parametrize("nest", [nested_list, nested_dict])
    def test_sizer_refuses_with_encoding_error(self, nest, depth):
        with pytest.raises(EncodingError, match="nesting deeper than 64"):
            encoded_size(nest(depth))

    def test_mixed_containers_count_together(self):
        value = nested_dict(MAX_DEPTH // 2)
        innermost = value
        while innermost:
            innermost = innermost["k"]
        innermost["k"] = nested_list(MAX_DEPTH // 2)
        assert decode(encode(value)) == value
        innermost["k"] = nested_list(MAX_DEPTH // 2 + 1)
        with pytest.raises(EncodingError):
            encode(value)


class TestWalScan:
    @pytest.mark.parametrize("depth", TOO_DEEP)
    def test_deep_record_is_a_torn_tail(self, depth):
        """A record that checksums but nests too deep ends the log there,
        like any other undecodable record — no exception."""
        good = wal.frame({"kind": "posting", "n": 1})
        body = nested_list_frame(depth)
        bad = wal.HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body
        records, valid = wal.scan(good + bad + good)
        assert records == [{"kind": "posting", "n": 1}]
        assert valid == len(good)


class CertificateDesk(Service):
    """Decodes a certificate handed to it as bytes, as any verifier that
    receives one out of band would."""

    def op_inspect(self, message):
        certificate = ProxyCertificate.from_bytes(
            message.payload["certificate"]
        )
        return {"grantor": certificate.grantor.to_wire()}


class TestService:
    @pytest.mark.parametrize("depth", TOO_DEEP)
    def test_deep_bytes_in_a_request_get_an_error_reply(
        self, clock, rng, depth
    ):
        network = Network(clock, rng=rng)
        desk = CertificateDesk(PrincipalId("desk"), network, clock)
        reply = network.send(
            PrincipalId("mallory"),
            desk.principal,
            "inspect",
            {"certificate": nested_list_frame(depth)},
        )
        assert is_error(reply)
        # DecodingError has no wire kind of its own: it travels as the
        # generic service error, detail intact.
        with pytest.raises(ServiceError, match="nesting deeper than 64"):
            raise_if_error(reply)

    def test_deep_payload_is_refused_at_the_sender(self, clock, rng):
        network = Network(clock, rng=rng)
        desk = CertificateDesk(PrincipalId("desk"), network, clock)
        with pytest.raises(EncodingError, match="nesting deeper than 64"):
            network.send(
                PrincipalId("mallory"),
                desk.principal,
                "inspect",
                {"certificate": nested_list(5000)},
            )


def test_nothing_the_reproduction_produces_comes_near_the_bound(
    tmp_path, monkeypatch
):
    """Every value encoded, sized or decoded while replaying Figs. 1–6 and
    while a durable bank logs, snapshots and recovers nests at most a
    quarter as deep as ``MAX_DEPTH`` allows."""
    deepest = {"encode": 0, "size": 0, "decode": 0}
    encode_into, decode_one = canonical._encode_into, canonical._decode_one
    payload_size = canonical._payload_size

    def spy_encode(out, value, kind, depth):
        deepest["encode"] = max(deepest["encode"], depth)
        return encode_into(out, value, kind, depth)

    def spy_size(value, kind, depth):
        deepest["size"] = max(deepest["size"], depth)
        return payload_size(value, kind, depth)

    def spy_decode(data, offset, depth):
        deepest["decode"] = max(deepest["decode"], depth)
        return decode_one(data, offset, depth)

    monkeypatch.setattr(canonical, "_encode_into", spy_encode)
    monkeypatch.setattr(canonical, "_payload_size", spy_size)
    monkeypatch.setattr(canonical, "_decode_one", spy_decode)

    for figure in SCENARIOS:
        run_figure(figure)

    realm = Realm(seed=b"depth-wal", resilience=True)
    alice, bob = realm.user("alice"), realm.user("bob")
    store = DurabilityStore(str(tmp_path / "bank"))
    bank = realm.accounting_server("bank", durability=store)
    bank.create_account("alice", alice.principal, {"dollars": 100})
    bank.create_account("bob", bob.principal)
    client = alice.accounting_client(bank.principal)
    client.transfer("alice", "bob", "dollars", 30)
    check = client.write_check("alice", bob.principal, "dollars", 10)
    bob.accounting_client(bank.principal).deposit_check(check, "bob")
    store.compact()
    client.transfer("alice", "bob", "dollars", 5)
    realm.network.unregister(bank.principal)
    again = realm.restart_accounting_server(
        "bank", durability=DurabilityStore(str(tmp_path / "bank"))
    )
    assert again.recovery is not None and again.recovery.ok
    assert again.accounts["bob"].balance("dollars") == 45

    assert 0 < deepest["encode"] <= MAX_DEPTH // 4
    assert 0 < deepest["size"] <= MAX_DEPTH // 4
    assert 0 < deepest["decode"] <= MAX_DEPTH // 4
