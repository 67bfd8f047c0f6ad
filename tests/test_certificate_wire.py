"""A certificate travels as the bytes it was signed over.

Its wire form is ``{"body": bytes, "signature": bytes}``, where ``body`` is
the canonical encoding of ``[domain, grantor, restrictions, key_binding,
issued_at, expires_at, link_kind, nonce]`` — the bytes the signature
covers.  A receiver decodes the body strictly, checks the signature over
it as it arrived, and decodes each distinct ``(body, signature)`` once
(``certificate.DECODED``).
"""

import hashlib
import struct
import threading

import pytest

from repro.core import vcache
from repro.core.certificate import (
    DECODED,
    HybridKeyBinding,
    ProxyCertificate,
    PublicKeyBinding,
    SealedKeyBinding,
)
from repro.core.proxy import grant_conventional, grant_hybrid, grant_public
from repro.core.restrictions import Authorized, AuthorizedEntry, Quota
from repro.crypto import schnorr, signature
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import SchnorrSigner
from repro.encoding.canonical import MAX_DEPTH, decode, encode
from repro.encoding.identifiers import PrincipalId
from repro.errors import ProxyVerificationError, WireSchemaError
from repro.kerberos.proxy_support import grant_via_credentials
from repro.net.message import encode_error, raise_if_error
from repro.testbed import Realm

ALICE = PrincipalId("alice")
SERVER = PrincipalId("server")


def conventional():
    """A fixed-seed HMAC certificate (its signature is deterministic)."""
    proxy = grant_conventional(
        ALICE,
        SymmetricKey.generate(Rng(seed=b"cert-wire")),
        (Quota(currency="USD", limit=2),),
        0.0,
        100.0,
        rng=Rng(seed=b"cert-wire-grant"),
    )
    (cert,) = proxy.certificates
    return cert


def public():
    rng = Rng(seed=b"cert-wire-public")
    identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    proxy = grant_public(
        ALICE, SchnorrSigner(identity), (), 0.0, 100.0, rng=rng, group=TEST_GROUP
    )
    return proxy.final


def hybrid():
    rng = Rng(seed=b"cert-wire-hybrid")
    identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    server_key = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    proxy = grant_hybrid(
        ALICE, SchnorrSigner(identity), SERVER, server_key.public,
        (), 0.0, 100.0, rng=rng,
    )
    return proxy.final


# ---------------------------------------------------------------------------
# The wire form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make, binding",
    [
        (conventional, SealedKeyBinding),
        (public, PublicKeyBinding),
        (hybrid, HybridKeyBinding),
    ],
    ids=["sealed", "public", "hybrid"],
)
def test_round_trip_and_one_form_for_every_key_binding(make, binding):
    cert = make()
    assert isinstance(cert.key_binding, binding)
    wire = cert.to_wire()
    assert wire == {"body": cert.body_bytes(), "signature": cert.signature}
    assert encode(cert) == encode(wire)
    again = ProxyCertificate.from_wire(wire)
    assert again == cert
    assert again.body_bytes() == cert.body_bytes()
    assert again.digest() == cert.digest()
    assert encode(again) == encode(wire)
    assert ProxyCertificate.from_bytes(cert.to_bytes()) == cert


def test_body_is_the_signed_list_and_the_signature_is_unchanged():
    """The body is the list the signature always covered, byte for byte:
    the dict form carried the same fields under their names, and its
    signature for this seed was the one pinned here."""
    cert = conventional()
    legacy = encode(
        [
            "repro-proxy-cert-v1",
            cert.grantor,
            cert.restrictions,
            cert.key_binding,
            float(cert.issued_at),
            float(cert.expires_at),
            cert.link_kind,
            cert.nonce,
        ]
    )
    assert cert.to_wire()["body"] == legacy
    assert hashlib.sha256(legacy).hexdigest() == (
        "fc602b9231f634949ce3e32c7a53d72c91c88d96e734d622a29084b374d02103"
    )
    assert cert.signature.hex() == (
        "01e1f511c70856285a261a1565619619876da62fc2e8d342597c9b9da2344d1ccf"
    )
    # The names no longer travel: 443 bytes as a dict of fields.
    assert len(encode(cert.to_wire())) == 388


def test_decoding_checks_the_body_as_it_arrived():
    """A decoded certificate's body is the received bytes object, and its
    digest encodes nothing."""
    cert = conventional()
    body = bytes(bytearray(cert.body_bytes()))  # a distinct, equal object
    DECODED.clear()
    again = ProxyCertificate.from_wire({"body": body, "signature": cert.signature})
    assert again.body_bytes() is body


# ---------------------------------------------------------------------------
# Changed bytes at the end server
# ---------------------------------------------------------------------------

@pytest.fixture
def world():
    realm = Realm(seed=b"cert-wire-world")
    alice, bob = realm.user("alice"), realm.user("bob")
    fs = realm.file_server("files")
    fs.grant_owner(alice.principal)
    fs.put("doc", b"data")
    creds = alice.kerberos.get_ticket(fs.principal)
    now = realm.clock.now()
    read = (Authorized(entries=(AuthorizedEntry("doc", ("read",)),)),)
    first = grant_via_credentials(creds, read, now)
    second = grant_via_credentials(creds, read, now)
    return realm, bob, fs, first, second


def present(world, change=None):
    """bob presents ``first`` to the file server, its certificate's wire
    form passed through ``change``."""
    realm, bob, fs, first, second = world
    wire = first.presentation(fs.principal, realm.clock.now(), "read", target="doc")
    if change is not None:
        (cert,) = wire["presented"]["certificates"]
        wire["presented"]["certificates"] = [change(dict(cert), second)]
    payload = {
        "operation": "read", "target": "doc", "args": {}, "amounts": {},
        "proxy": wire,
    }
    return raise_if_error(
        realm.network.send(bob.principal, fs.principal, "request", payload)
    )


def flip_last(data):
    return data[:-1] + bytes([data[-1] ^ 0x01])


def test_the_untouched_certificate_is_accepted(world):
    assert present(world)["data"] == b"data"


@pytest.mark.parametrize(
    "change",
    [
        # The body's last byte is its nonce's: the body still decodes.
        lambda cert, other: {**cert, "body": flip_last(cert["body"])},
        lambda cert, other: {**cert, "signature": flip_last(cert["signature"])},
        # A body spliced under another certificate's signature.
        lambda cert, other: {
            **cert, "signature": other.proxy.certificates[0].signature
        },
    ],
    ids=["body-byte", "signature-byte", "spliced-body"],
)
def test_a_changed_certificate_is_refused_at_the_end_server(world, change):
    with pytest.raises(ProxyVerificationError, match="signature of link 0 invalid"):
        present(world, change)


# ---------------------------------------------------------------------------
# Malformed bodies, refused before any signature check
# ---------------------------------------------------------------------------

def tlv(tag, payload):
    return tag + struct.pack(">I", len(payload)) + payload


def fields_of(cert):
    return decode(cert.body_bytes())


def reencoded(edit):
    def body(cert):
        fields = fields_of(cert)
        edit(fields)
        return encode(fields)

    return body


def with_item(index, raw):
    """The body with its ``index``-th item replaced by raw TLV bytes."""

    def body(cert):
        items = [encode(item) for item in fields_of(cert)]
        items[index] = raw
        return tlv(b"L", b"".join(items))

    return body


def nested(depth):
    value = encode([])
    for _ in range(depth):
        value = tlv(b"L", value)
    return value


def unsorted_binding(cert):
    binding = fields_of(cert)[3]
    pairs = [encode(key) + encode(binding[key]) for key in sorted(binding)]
    return tlv(b"M", b"".join(reversed(pairs)))


MALFORMED = {
    "wrong-domain": reencoded(lambda f: f.__setitem__(0, "repro-proxy-cert-v2")),
    "short": reencoded(lambda f: f.pop()),
    "long": reencoded(lambda f: f.append(b"")),
    "not-a-list": lambda cert: encode({str(n): n for n in range(8)}),
    "trailing-bytes": lambda cert: cert.body_bytes() + encode(None),
    "non-canonical-int": with_item(4, tlv(b"I", b"\x00\x00")),
    "unsorted-keys": lambda cert: with_item(3, unsorted_binding(cert))(cert),
    "int-for-float": reencoded(lambda f: f.__setitem__(4, 0)),
    "too-deep": with_item(2, nested(MAX_DEPTH)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_body_is_refused_before_any_signature_check(
    name, monkeypatch
):
    cert = conventional()
    wire = {"body": MALFORMED[name](cert), "signature": cert.signature}
    checked = []
    monkeypatch.setattr(
        signature.Verifier,
        "verify",
        lambda self, message, sig: checked.append(message),
    )
    misses = DECODED.misses
    with pytest.raises(WireSchemaError, match=r"ProxyCertificate") as refused:
        ProxyCertificate.from_wire(wire)
    assert encode_error(refused.value)["__error__"]["kind"] == "malformed"
    assert checked == []
    # A body that failed to decode is never stored.
    assert DECODED.misses == misses + 1
    assert (wire["body"], wire["signature"]) not in DECODED


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------

def test_the_memo_answers_only_byte_identical_pairs():
    cert = conventional()
    wire = cert.to_wire()
    DECODED.clear()
    hits, misses = DECODED.hits, DECODED.misses
    first = ProxyCertificate.from_wire(wire)
    assert ProxyCertificate.from_wire(dict(wire)) is first
    assert (DECODED.hits, DECODED.misses) == (hits + 1, misses + 1)
    changed = ProxyCertificate.from_wire(
        {**wire, "signature": flip_last(wire["signature"])}
    )
    assert changed is not first and changed.signature != first.signature
    assert (DECODED.hits, DECODED.misses) == (hits + 1, misses + 2)
    assert len(DECODED) == 2


def test_the_memo_stays_within_its_cap_and_counts_evictions():
    cert = conventional()
    body = cert.body_bytes()
    DECODED.clear()
    evictions = DECODED.evictions
    extra = 5
    for n in range(vcache.DEFAULT_MAX_ENTRIES + extra):
        ProxyCertificate.from_wire(
            {"body": body, "signature": n.to_bytes(4, "big")}
        )
        assert len(DECODED) <= vcache.DEFAULT_MAX_ENTRIES
    assert DECODED.max_entries == vcache.DEFAULT_MAX_ENTRIES
    assert len(DECODED) == vcache.DEFAULT_MAX_ENTRIES
    assert DECODED.evictions == evictions + extra
    # Least recently used out first: the first five went.
    assert (body, (0).to_bytes(4, "big")) not in DECODED
    assert (body, (extra).to_bytes(4, "big")) in DECODED


def test_threads_decoding_at_once_share_one_memo():
    """The aio client threads and the loop thread decode at the same time:
    every use is counted once, and the store keeps one entry per pair."""
    cert = conventional()
    body = cert.body_bytes()
    DECODED.clear()
    hits, misses = DECODED.hits, DECODED.misses
    wires = [{"body": body, "signature": bytes([n])} for n in range(16)]
    failures = []

    def decode_all():
        try:
            for _ in range(20):
                for wire in wires:
                    decoded = ProxyCertificate.from_wire(wire)
                    assert decoded.signature == wire["signature"]
        except BaseException as exc:  # reported on the main thread
            failures.append(exc)

    threads = [threading.Thread(target=decode_all) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    uses = (DECODED.hits - hits) + (DECODED.misses - misses)
    assert uses == 4 * 20 * len(wires)
    assert len(DECODED) == len(wires)


def test_the_memo_is_on_when_the_verification_cache_is_off():
    """It caches a decode, never a verdict."""
    cert = conventional()
    DECODED.clear()
    with vcache.override(vcache.DISABLED_CONFIG):
        first = ProxyCertificate.from_wire(cert.to_wire())
        assert ProxyCertificate.from_wire(cert.to_wire()) is first
