"""Conventional keys for Kerberos endorsements (§3.4, §6.2).

A delegate link's proxy key is of the kind of the key that signs it.  A
Kerberos endorser signs with its session key for the end-server, so its
link binds a fresh symmetric key sealed under that session key
(:class:`SealedKeyBinding`): only the end-server opens it, and no
public-key arithmetic happens anywhere on a Kerberos chain.  A
public-key intermediate still binds a Schnorr key.  Every verification
step stays: link signatures, unsealing with the fingerprint check, the
grantee check and the possession proof.
"""

import dataclasses
from collections import Counter

import pytest

import repro.services.accounting as accounting
from repro.clock import SimulatedClock
from repro.core.certificate import (
    LINK_DELEGATE,
    PublicKeyBinding,
    SealedKeyBinding,
    build_certificate,
)
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import Proxy, delegate_cascade, grant_public
from repro.core.restrictions import Grantee
from repro.core.verification import ProxyVerifier, PublicKeyCrypto
from repro.crypto import schnorr, symmetric
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.crypto.signature import HmacSigner, SchnorrSigner
from repro.encoding.canonical import encode
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    IntegrityError,
    ProxyVerificationError,
    RestrictionViolation,
)
from repro.kerberos.proxy_support import (
    KerberosProxy,
    endorse,
    grant_via_credentials,
)
from repro.net import Eavesdropper
from repro.net.aio import AioNetwork, drive
from repro.testbed import Realm
from repro.workloads.load import SCENARIOS, LoadConfig, provision

RUNTIMES = ("sync", "aio")
DOC = "doc/report"


def run(realm, body):
    if isinstance(realm.network, AioNetwork):
        return drive(realm.network, body)
    return body()


def fig4_world(runtime):
    """alice owns a document on ``files``; carol is her named delegate."""
    realm = Realm(seed=b"conventional-endorsement", runtime=runtime)
    alice, carol, dave = (realm.user(n) for n in ("alice", "carol", "dave"))
    fs = realm.file_server("files")
    fs.grant_owner(alice.principal)
    fs.put(DOC, b"quarterly numbers")
    return realm, alice, carol, dave, fs


def to_carol(realm, alice, carol, fs):
    return grant_via_credentials(
        alice.kerberos.get_ticket(fs.principal),
        (Grantee(principals=(carol.principal,)),),
        realm.clock.now(),
        rng=alice.kerberos.rng,
    )


def carol_endorses(realm, carol, dave, fs, kproxy):
    return endorse(
        kproxy,
        carol.kerberos.get_ticket(fs.principal),
        dave.principal,
        (),
        realm.clock.now(),
        realm.clock.now() + 3600.0,
        rng=carol.kerberos.rng,
    )


def read(client, chain, **kwargs):
    return client.request("read", DOC, proxy=chain, **kwargs)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_an_endorsement_seals_a_symmetric_key_under_the_endorsers_session(
    runtime,
):
    realm, alice, carol, dave, fs = fig4_world(runtime)

    def body():
        root = to_carol(realm, alice, carol, fs)
        chain = carol_endorses(realm, carol, dave, fs, root)
        return root, chain, read(dave.client_for(fs.principal), chain)

    root, chain, reply = run(realm, body)
    link = chain.proxy.final
    assert link.link_kind == LINK_DELEGATE and link.grantor == carol.principal
    binding, key = link.key_binding, chain.proxy.proxy_key
    assert isinstance(binding, SealedKeyBinding)
    assert isinstance(key, SymmetricKey)
    session = carol.kerberos.get_ticket(fs.principal).session_key
    assert symmetric.unseal(session.secret, binding.box) == key.secret
    assert binding.fingerprint == key.fingerprint()
    # Sealed under the endorser's session key, not the previous link's key.
    with pytest.raises(IntegrityError):
        symmetric.unseal(root.proxy.proxy_key.secret, binding.box)
    assert reply["data"] == b"quarterly numbers"


def count_schnorr(monkeypatch):
    counts = Counter()
    for name in ("generate_keypair", "sign", "verify", "verify_batch"):
        original = getattr(schnorr, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(schnorr, name, wrapper)
    return counts


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("figure, warm_ops", [("fig5", 0), ("fig4", 1)])
def test_kerberos_chains_do_no_public_key_arithmetic(
    figure, warm_ops, runtime, monkeypatch
):
    """A fig5 deposit (endorsement, E1, E2, clearing) and a warm fig4 op
    (present the endorsed chain, verify it) never touch Schnorr."""
    realm = Realm(seed=b"no-schnorr-" + figure.encode(), runtime=runtime)
    scenario = SCENARIOS[figure]()
    config = LoadConfig(scenario=figure, principals=1, mode=runtime)

    def body():
        state, (pstate,) = provision(scenario, realm, config)
        for k in range(warm_ops):
            scenario.op(realm, config, state, pstate, 0, k)
        with monkeypatch.context() as patch:
            counts = count_schnorr(patch)
            for k in range(warm_ops, warm_ops + 2):
                scenario.op(realm, config, state, pstate, 0, k)
        return state, counts

    state, counts = run(realm, body)
    assert scenario.check(realm, config, state, warm_ops + 2) == []
    assert counts == Counter()


def test_a_public_key_intermediate_still_binds_a_schnorr_key():
    """``bench_c11``'s chain: a public-key root and Schnorr relays."""
    rng = Rng(b"schnorr-relays")
    clock = SimulatedClock(1_000.0)
    now = clock.now()
    alice = PrincipalId("alice")
    relays = [PrincipalId(f"relay-{i}") for i in range(2)]
    holder = PrincipalId("carol")
    identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
    directory = {alice: SchnorrSigner(identity).verifier()}
    proxy = grant_public(
        alice, SchnorrSigner(identity), (Grantee(principals=(relays[0],)),),
        now, now + 3600, rng, group=TEST_GROUP,
    )
    for i, relay in enumerate(relays):
        relay_identity = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        directory[relay] = SchnorrSigner(relay_identity).verifier()
        nxt = relays[i + 1] if i + 1 < len(relays) else holder
        proxy = delegate_cascade(
            proxy, relay, SchnorrSigner(relay_identity), nxt,
            (), now, now + 3600, rng=rng, group=TEST_GROUP,
        )
        assert isinstance(proxy.final.key_binding, PublicKeyBinding)
        assert proxy.final.key_binding.scheme == "schnorr"
        assert isinstance(proxy.proxy_key, schnorr.SchnorrPrivateKey)
        assert proxy.proxy_key.public.group == TEST_GROUP
    server = PrincipalId("files")
    verifier = ProxyVerifier(
        server=server, crypto=PublicKeyCrypto(directory=directory),
        clock=clock,
    )
    verified = verifier.verify(
        present(proxy, server, now, "read", target=DOC),
        RequestContext(
            server=server, operation="read", target=DOC, time=now,
            claimant=holder,
        ),
    )
    assert verified.audit_trail == tuple(relays)


def forged_endorsement(realm, carol, dave, fs, root, box_key, fingerprint):
    """carol's correctly signed endorsement to dave whose binding seals a
    fresh key under ``box_key`` and names ``fingerprint`` (the key's own
    if None)."""
    rng = carol.kerberos.rng
    credentials = carol.kerberos.get_ticket(fs.principal)
    key = SymmetricKey.generate(rng=rng)
    cert = build_certificate(
        grantor=carol.principal,
        restrictions=(Grantee(principals=(dave.principal,)),),
        key_binding=SealedKeyBinding(
            box=symmetric.seal(box_key.secret, key.secret, rng=rng),
            fingerprint=fingerprint or key.fingerprint(),
        ),
        issued_at=realm.clock.now(),
        expires_at=realm.clock.now() + 3600.0,
        link_kind=LINK_DELEGATE,
        signer=HmacSigner(key=credentials.session_key),
        rng=rng,
    )
    return KerberosProxy(
        tickets=root.tickets + (credentials.ticket,),
        proxy=Proxy(root.proxy.certificates + (cert,), proxy_key=key),
    )


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize(
    "forgery", ["swapped-box", "wrong-session-key", "fingerprint"]
)
def test_a_bad_sealed_binding_is_refused(forgery, runtime):
    realm, alice, carol, dave, fs = fig4_world(runtime)

    def body():
        root = to_carol(realm, alice, carol, fs)
        client = dave.client_for(fs.principal)
        if forgery == "swapped-box":
            chain = carol_endorses(realm, carol, dave, fs, root)
            other = carol_endorses(realm, carol, dave, fs, root)
            swapped = dataclasses.replace(
                chain.proxy.final, key_binding=other.proxy.final.key_binding
            )
            bad = chain.handoff(
                Proxy(
                    chain.proxy.certificates[:-1] + (swapped,),
                    proxy_key=other.proxy.proxy_key,
                )
            )
        elif forgery == "wrong-session-key":
            # Sealed under alice's session key (the previous link's
            # signing key), not carol's.
            bad = forged_endorsement(
                realm, carol, dave, fs, root,
                alice.kerberos.get_ticket(fs.principal).session_key, None,
            )
        else:
            bad = forged_endorsement(
                realm, carol, dave, fs, root,
                carol.kerberos.get_ticket(fs.principal).session_key,
                SymmetricKey.generate(rng=carol.kerberos.rng).fingerprint(),
            )
        with pytest.raises(ProxyVerificationError) as refused:
            read(client, bad)
        # The honest endorsement still reads.
        good = carol_endorses(realm, carol, dave, fs, root)
        return refused.value, read(client, good)

    refused, reply = run(realm, body)
    expected = {
        "swapped-box": "signature",
        "wrong-session-key": "failed to open",
        "fingerprint": "fingerprint mismatch",
    }[forgery]
    assert expected in str(refused)
    assert reply["data"] == b"quarterly numbers"


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_holding_daves_key_without_being_dave_is_refused_on_grantee(runtime):
    realm, alice, carol, dave, fs = fig4_world(runtime)
    mallory = realm.user("mallory")

    def body():
        chain = carol_endorses(
            realm, carol, dave, fs, to_carol(realm, alice, carol, fs)
        )
        refusals = []
        for kwargs in ({}, {"anonymous": True}):
            with pytest.raises(RestrictionViolation) as refused:
                read(mallory.client_for(fs.principal), chain, **kwargs)
            refusals.append(refused.value.restriction_type)
        return refusals, read(dave.client_for(fs.principal), chain)

    refusals, reply = run(realm, body)
    assert refusals == ["grantee", "grantee"]
    assert reply["data"] == b"quarterly numbers"


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_banks_receive_endorsed_chains_without_their_keys(
    runtime, monkeypatch
):
    """E1 (payee -> its bank) and the routed ``collect-check`` hop carry
    ``proxy_key: None``, and no endorsement key crosses any frame."""
    realm = Realm(seed=b"keyless-handoff", runtime=runtime)
    bank_a = realm.accounting_server("bank-a")
    bank_b = realm.accounting_server("bank-b")
    bank_mid = realm.accounting_server("bank-mid")
    bank_b.routes[bank_a.principal] = bank_mid.principal
    payor, payee = realm.user("payor"), realm.user("payee")
    bank_a.create_account("payor", payor.principal, {"dollars": 100})
    bank_b.create_account("payee", payee.principal)
    mallory = Eavesdropper()
    mallory.attach(realm.network)
    keys = []

    def recording_endorse(*args, **kwargs):
        endorsed = endorse(*args, **kwargs)
        keys.append(endorsed.proxy.proxy_key.secret)
        return endorsed

    monkeypatch.setattr(accounting, "endorse", recording_endorse)

    def body():
        check = payor.accounting_client(bank_a.principal).write_check(
            "payor", payee.principal, "dollars", 30
        )
        return payee.accounting_client(bank_b.principal).deposit_check(
            check, "payee"
        )

    result = run(realm, body)
    assert result["paid"] == 30
    assert bank_b.accounts["payee"].balance("dollars") == 30
    bundles = {
        message.payload["operation"]: message.payload["args"]["bundle"]
        for message in mallory.captured
        if message.msg_type == "request"
        and message.payload.get("operation")
        in ("deposit-check", "collect-check")
    }
    assert set(bundles) == {"deposit-check", "collect-check"}
    assert all(b["proxy_key"] is None for b in bundles.values())
    assert len(keys) == 2  # the payee's endorsement and bank B's
    frames = [encode(message.payload) for message in mallory.captured]
    assert not any(key in frame for key in keys for frame in frames)
