"""Declared wire schemas (``repro.encoding.schema``): a value that does not
fit its declaration is refused with ``WireSchemaError``, never changed.

Each probe here used to be coerced or guessed at: ``limit: 2.9`` became
``Quota(limit=2)``, ``True`` became 1, a transfer of ``"5"`` moved 5.
"""

import ast
from pathlib import Path

import pytest

from repro.core.certificate import ProxyCertificate
from repro.core.presentation import PresentedProxy
from repro.core.proxy import grant_conventional
from repro.core.restrictions import Quota, restriction_from_wire
from repro.crypto import signature
from repro.crypto.keys import SymmetricKey
from repro.crypto.rng import Rng
from repro.encoding.canonical import decode, encode
from repro.encoding.identifiers import PrincipalId
from repro.errors import WireSchemaError
from repro.net.aio import drive
from repro.net.message import encode_error, raise_if_error
from repro.services.checks import account_target
from repro.testbed import Realm

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

PROBES = {
    "float-limit": {"type": "quota", "currency": "USD", "limit": 2.9},
    "bool-limit": {"type": "quota", "currency": "USD", "limit": True},
    "int-currency": {"type": "quota", "currency": 123, "limit": 2},
    "extra-key": {"type": "quota", "currency": "USD", "limit": 2, "x": 1},
    "missing-key": {"type": "quota", "currency": "USD"},
    "str-not-after": {"type": "expiration", "not_after": "x"},
}


@pytest.mark.parametrize("wire", PROBES.values(), ids=PROBES)
def test_restriction_probe_refused(wire):
    with pytest.raises(WireSchemaError):
        restriction_from_wire(wire)


def test_refusal_names_type_field_and_problem():
    with pytest.raises(
        WireSchemaError, match=r"^Quota\.limit: expected int, got float$"
    ):
        restriction_from_wire(PROBES["float-limit"])
    with pytest.raises(WireSchemaError, match=r"^Quota: unknown 'x'$"):
        restriction_from_wire(PROBES["extra-key"])
    # A refusal from the class's own __post_init__ is reported alike.
    with pytest.raises(
        WireSchemaError, match=r"^Quota: quota limit must be non-negative$"
    ):
        restriction_from_wire({"type": "quota", "currency": "USD", "limit": -1})


def test_refusal_crosses_the_wire_as_its_own_type():
    payload = encode_error(WireSchemaError("Quota.limit: expected int"))
    assert payload["__error__"]["kind"] == "malformed"
    with pytest.raises(WireSchemaError, match="Quota.limit"):
        raise_if_error(payload)


def test_certificate_with_a_changed_limit_refused_before_any_signature_check(
    monkeypatch,
):
    """A body that re-encoded from coerced fields would let ``limit: 2.9``
    decode as 2 and verify under the signature made over ``limit: 2``:
    one signed value with two accepted wire forms.  The body is decoded
    to its exact declared types instead, so 2.9 is refused."""
    proxy = grant_conventional(
        grantor=PrincipalId("alice"),
        shared_key=SymmetricKey.generate(Rng(seed=b"wire-cert")),
        restrictions=(Quota(currency="USD", limit=2),),
        issued_at=0.0,
        expires_at=100.0,
        rng=Rng(seed=b"wire-cert-grant"),
    )
    (cert,) = proxy.certificates
    fields = decode(cert.to_wire()["body"])
    fields[2][0]["limit"] = 2.9  # [domain, grantor, restrictions, ...]
    wire = {"body": encode(fields), "signature": cert.signature}
    checked = []
    monkeypatch.setattr(
        signature.Verifier,
        "verify",
        lambda self, message, sig: checked.append(message),
    )
    for attempt in (
        lambda: ProxyCertificate.from_wire(wire),
        lambda: ProxyCertificate.from_bytes(encode(wire)),
        lambda: PresentedProxy.from_wire(
            {"certificates": [wire], "proof": None, "claimant": None}
        ),
    ):
        with pytest.raises(WireSchemaError, match=r"Quota\.limit"):
            attempt()
    assert checked == []
    assert ProxyCertificate.from_wire(cert.to_wire()) == cert


def _balances(bank):
    return {
        name: (dict(account.balances), dict(account.holds))
        for name, account in bank.accounts.items()
    }


@pytest.mark.parametrize("runtime", ["sync", "aio"])
@pytest.mark.parametrize("operation", ["transfer", "debit"])
@pytest.mark.parametrize(
    "amount", [2.9, True, "5"], ids=["float", "bool", "str"]
)
def test_non_int_amount_refused_and_moves_nothing(runtime, operation, amount):
    """``int()`` ran before the validator: 2.9 moved 2, True moved 1 and
    "5" moved 5.  The check's quota and the declared amounts are the
    coerced value's, so only the argument's type is wrong."""
    realm = Realm(seed=b"wire-amounts", runtime=runtime)

    def body():
        bank = realm.accounting_server("bank")
        alice, bob = realm.user("alice"), realm.user("bob")
        bank.create_account("alice", alice.principal, {"dollars": 100})
        bank.create_account("bob", bob.principal)
        before = _balances(bank)
        if operation == "transfer":
            client = alice.accounting_client(bank.principal).service
            request = dict(
                target="account:alice",
                args={"to": "bob", "currency": "dollars", "amount": amount},
            )
        else:
            check = alice.accounting_client(bank.principal).write_check(
                "alice", bob.principal, "dollars", int(amount)
            )
            client = bob.accounting_client(bank.principal).service
            request = dict(
                target=account_target(check.payor_account),
                args={
                    "currency": "dollars",
                    "amount": amount,
                    "credit_account": "bob",
                },
                amounts={"dollars": int(amount)},
                proxy=check.bundle,
            )
        with pytest.raises(WireSchemaError, match=r"\.amount: expected int"):
            client.request(operation, **request)
        assert _balances(bank) == before
        assert bank.ledger.audit_discrepancies() == []

    if runtime == "aio":
        drive(realm.network, body)
    else:
        body()


# ---------------------------------------------------------------------------
# Ratchet: every wire form is declared
# ---------------------------------------------------------------------------

#: Hand-written decoders that stay, by ``file::qualname`` (or a directory
#: prefix ending in ``/``), each with its reason; the only places a wire
#: field may also be read through ``int()``/``float()``.
HAND_WRITTEN = {
    "baselines/": "the prior-work baselines keep their own formats, as "
    "their papers give them",
    "crypto/rsa.py::RsaPublicKey.from_wire": "a public key's integers are "
    "checked against the key's own arithmetic, not a field declaration",
    "crypto/schnorr.py::SchnorrPublicKey.from_wire": "a key outside the "
    "named Schnorr groups is refused by the group table",
}


def _allowed(name):
    return name in HAND_WRITTEN or any(
        prefix.endswith("/") and name.startswith(prefix)
        for prefix in HAND_WRITTEN
    )


def _stale(found):
    return [
        entry
        for entry in HAND_WRITTEN
        if not any(
            name == entry or (entry.endswith("/") and name.startswith(entry))
            for name in found
        )
    ]


def _hand_written_decoders():
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name == "from_wire"
                    ):
                        yield f"{relative}::{node.name}.from_wire"
            elif isinstance(node, ast.FunctionDef) and node.name.endswith(
                "from_wire"
            ):
                yield f"{relative}::{node.name}"


def test_every_wire_decoder_is_declared():
    """A ``from_wire`` written by hand is a second place a wire type's
    fields are spelled out, and the place bad data used to get "fixed":
    declare the type with ``repro.encoding.schema`` instead."""
    found = list(_hand_written_decoders())
    assert [name for name in found if not _allowed(name)] == []
    assert _stale(found) == []


def _reads_a_field(expr):
    """Does ``expr`` read a named field of a dict: ``x["key"]`` or
    ``x.get("key")``?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and type(key.value) is str:
            return True
    return False


def _coercions():
    """``int(...)``/``float(...)`` of a dict field, as ``file::qualname``
    of the function (or ``<module>``) it is in, with its line."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                scopes = [
                    (f"{top.name}.{getattr(item, 'name', '<body>')}", item)
                    for item in top.body
                ]
            else:
                scopes = [(getattr(top, "name", "<module>"), top)]
            for name, scope in scopes:
                for node in ast.walk(scope):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("int", "float")
                        and any(_reads_a_field(arg) for arg in node.args)
                    ):
                        yield f"{relative}::{name}", node.lineno


def test_no_wire_field_is_coerced():
    """``int(payload["pages"])`` turns ``"7"`` into 7 and ``2.9`` into 2:
    a second accepted form of the value.  A field is decoded by its
    declaration (or ``schema.decoder``), which refuses instead."""
    found = list(_coercions())
    assert [
        f"{name}:{line}" for name, line in found if not _allowed(name)
    ] == []
    assert _stale([name for name, _ in found]) == []
