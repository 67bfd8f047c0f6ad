"""What one warm op of every benchmark figure costs in crypto, encoding and
wire traffic, pinned.

Each figure in :data:`~repro.workloads.load.SCENARIOS` is provisioned on
the sync runtime and warmed exactly as ``python -m repro trace`` does it
(:func:`~repro.workloads.load.warm_up`); then one more op runs under call
counters:

* Schnorr ``generate_keypair``, ``sign`` and ``verify``, and the
  public-key exponentiations that found no table (``schnorr._key_pow``
  falling through to native ``pow``);
* HMAC ``sign`` and ``verify`` (:class:`HmacSigner`'s public calls,
  signature-cache hits included — the calls the benchmark's traced
  ``crypto.hmac.calls_per_op`` row counts);
* ``symmetric.seal`` and ``symmetric.unseal``, and the bytes handed to
  them (plaintext to ``seal``, the box to ``unseal``: what the
  benchmark's traced ``crypto.symmetric.bytes_per_op`` row adds up);
* outermost ``canonical.encode`` calls;
* ``canonical.encoded_size`` calls — ``Message.wire_size`` sizes each
  message without encoding it, once, so this equals the message count;
* wire messages and bytes.

A change that moves any count must change :data:`KNOWN` and say why.
"""

import sys
from collections import Counter

import pytest

from repro.crypto import schnorr, symmetric
from repro.crypto.signature import (
    HmacSigner,
    SignatureCache,
    Signer,
    Verifier,
    set_signature_cache,
)
from repro.encoding import canonical
from repro.testbed import Realm
from repro.workloads.load import SCENARIOS, LoadConfig, warm_up

FIELDS = (
    "schnorr.keygen", "schnorr.sign", "schnorr.verify", "schnorr.untabled",
    "hmac.sign", "hmac.verify",
    "symmetric.seal", "symmetric.unseal", "symmetric.bytes",
    "encode", "wire.sized",
    "wire.messages", "wire.bytes",
)
#: figure -> one warm op's counts, in :data:`FIELDS` order.
KNOWN = {
    "echo": (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 143),
    # The grantor's ticket travels with the proxy; the file server opened
    # it on the warm-up op and its ticket memo answers for it now.  The
    # possession proof's signed body is encoded once at the file server,
    # for its signature check and its replay-cache key alike.
    "fig1": (0, 0, 0, 0, 1, 1, 0, 0, 0, 5, 2, 2, 1578),
    # The client opens the proxy key delivered under its session key and
    # the file server unseals the fresh proxy's root key; its ticket memo
    # answers for the authorization server's ticket.  Message 2 carries
    # the certificate and ticket openly and seals only the 32-byte key
    # (Fig. 3's {Kproxy}Ksession), so nothing encodes the delivery for a
    # seal: the whole-bundle seal read 2082 symmetric bytes, 7 encodes
    # and 2817 wire bytes.
    "fig3": (0, 0, 0, 0, 2, 2, 2, 2, 224, 6, 4, 4, 2806),
    # dave proves possession of his sealed symmetric key with one HMAC,
    # which the file server checks; the endorsement's key is unsealed
    # under carol's session key (no Schnorr sign or verify) on the
    # chain's first presentation and restored from the chain cache
    # since, and both tickets are memo hits.
    "fig4": (0, 0, 0, 0, 1, 1, 0, 0, 0, 6, 2, 2, 2179),
    # The payee's endorsement seals a symmetric key under its session
    # key with bank A (one seal, one unseal at A), minting no Schnorr
    # keypair; the chain travels to bank B without it.  Bank A unseals
    # the new check's two link keys; both bundle tickets are memo hits.
    "fig5": (0, 0, 0, 0, 2, 2, 2, 2, 224, 5, 4, 4, 4792),
    # The claimant's envelope key and the proxy key were both promoted
    # to combs on this, their second, request: no exponentiation under
    # a public key runs without a table.  The envelope body is encoded
    # once, not once to verify and once for the replay cache, and so is
    # the possession proof's (as in fig1, fig3 and fig4).
    "pk-verify": (0, 2, 2, 0, 0, 0, 0, 0, 0, 9, 2, 2, 1450),
}


def patch_everywhere(monkeypatch, module, name, wrapper):
    """Rebind ``module.name`` and every ``repro`` global bound to it."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and (
            vars(mod).get(name) is original
        ):
            monkeypatch.setattr(mod, name, wrapper)
    return original


def install_counters(monkeypatch, counts):
    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def sealing(key, original):
        def wrapper(secret, data, *args, **kwargs):
            counts[key] += 1
            counts["symmetric.bytes"] += len(data)
            return original(secret, data, *args, **kwargs)

        return wrapper

    for module, name, key, count in (
        (schnorr, "generate_keypair", "schnorr.keygen", counting),
        (schnorr, "sign", "schnorr.sign", counting),
        (schnorr, "verify", "schnorr.verify", counting),
        (symmetric, "seal", "symmetric.seal", sealing),
        (symmetric, "unseal", "symmetric.unseal", sealing),
    ):
        original = getattr(module, name)
        patch_everywhere(monkeypatch, module, name, count(key, original))

    key_pow = schnorr._key_pow

    def untabled_key_pow(params, key, exponent):
        if not schnorr._precompute_enabled or (
            schnorr._KEY_TABLES.get((key.group_p, key.y)) is None
        ):
            counts["schnorr.untabled"] += 1
        return key_pow(params, key, exponent)

    patch_everywhere(monkeypatch, schnorr, "_key_pow", untabled_key_pow)

    monkeypatch.setattr(
        HmacSigner, "sign", counting("hmac.sign", Signer.sign)
    )
    monkeypatch.setattr(
        HmacSigner, "verify", counting("hmac.verify", Verifier.verify)
    )

    encode = canonical.encode
    depth = [0]

    def outermost_encode(value):
        if depth[0] == 0:
            counts["encode"] += 1
        depth[0] += 1
        try:
            return encode(value)
        finally:
            depth[0] -= 1

    patch_everywhere(monkeypatch, canonical, "encode", outermost_encode)
    patch_everywhere(
        monkeypatch,
        canonical,
        "encoded_size",
        counting("wire.sized", canonical.encoded_size),
    )


def op_costs(figure, monkeypatch):
    """The counted costs of one warm sync op of ``figure``.

    A fresh signature cache, so that what other tests verified earlier in
    the process cannot turn a Schnorr verify into a hit."""
    previous = set_signature_cache(SignatureCache())
    try:
        realm = Realm(seed=b"obs-" + figure.encode())
        scenario = SCENARIOS[figure]()
        config = LoadConfig(scenario=figure, principals=1, mode="sync")
        state, pstate = warm_up(scenario, realm, config)
        counts = Counter()
        before = realm.network.metrics.snapshot()
        with monkeypatch.context() as patch:
            install_counters(patch, counts)
            scenario.op(realm, config, state, pstate, 0, 1)
    finally:
        set_signature_cache(previous)
    delta = realm.network.metrics.delta_since(before)
    counts["wire.messages"] = delta.messages
    counts["wire.bytes"] = delta.bytes
    return tuple(counts[field] for field in FIELDS)


@pytest.mark.parametrize("figure", sorted(SCENARIOS))
def test_one_warm_op_costs_what_it_did(figure, monkeypatch):
    costs = dict(zip(FIELDS, op_costs(figure, monkeypatch)))
    assert costs == dict(zip(FIELDS, KNOWN[figure]))
    # Every message is metered, and metering encodes nothing.
    assert costs["wire.sized"] == costs["wire.messages"]
