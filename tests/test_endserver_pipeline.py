"""One request pipeline, two authentication front-ends (§6.1 ≡ §6.2).

The same restricted proxy is verified, audited, restricted and checked
against the ACL whether its presenter authenticated by a Kerberos session
(:class:`FileServer`) or by a signed public-key envelope
(:class:`PkEndServer`).  Every test here runs against both and drives
raw ``request`` payloads, so each pipeline stage can be broken on its own.
"""

import pytest

from repro.acl import AclEntry, SinglePrincipal
from repro.core.presentation import PresentedProxy, present, request_digest
from repro.core.proxy import cascade, grant_public
from repro.core.restrictions import AcceptOnce, IssuedFor, Quota
from repro.crypto.schnorr_groups import TEST_GROUP
from repro.errors import (
    AuthenticatorError,
    AuthorizationDenied,
    ProxyVerificationError,
    RestrictionViolation,
    ServiceError,
)
from repro.kerberos.proxy_support import grant_via_credentials
from repro.net.message import raise_if_error
from repro.obs.telemetry import Telemetry
from repro.services.pk_endserver import (
    PkClient,
    PkEndServer,
    PublicKeyDirectory,
)
from repro.testbed import Realm


class Kerberos:
    """§6.2: bob presents alice's proxy inside his own session."""

    identity_path = "session"
    auth_error = (ServiceError, "unknown session id")

    def __init__(self):
        self.realm = Realm(seed=b"pipeline-kerberos", telemetry=Telemetry())
        self.alice = self.realm.user("alice")
        self.bob = self.realm.user("bob")
        self.server = self.realm.file_server("files")
        self.server.put("doc", b"data")
        self.files = self.server.files
        self._session_id = self.bob.client_for(
            self.server.principal
        ).session_id()

    def grant(self, restrictions):
        creds = self.alice.kerberos.get_ticket(self.server.principal)
        return grant_via_credentials(
            creds, restrictions, self.realm.clock.now()
        )

    def cascade(self, proxy, restrictions):
        now = self.realm.clock.now()
        return proxy.handoff(cascade(proxy.proxy, restrictions, now, now + 60))

    def identity(self, operation, target, valid):
        return {"session_id": self._session_id if valid else b"bogus"}

    def present(self, proxy, operation, target):
        return proxy.presentation(
            self.server.principal, self.realm.clock.now(), operation,
            target=target,
        )

    @staticmethod
    def certificates(bundle):
        return bundle["presented"]["certificates"]


class PublicKey:
    """§6.1: bob signs an envelope per request; no KDC anywhere."""

    identity_path = "envelope"
    auth_error = (AuthenticatorError, "bound to another request")

    def __init__(self):
        self.realm = Realm(seed=b"pipeline-pk", telemetry=Telemetry())
        rng = self.realm.rng.fork(b"pk")
        directory = PublicKeyDirectory()
        self.server = PkEndServer(
            self.realm.principal("pk-files"), self.realm.network,
            self.realm.clock, directory, group=TEST_GROUP, rng=rng,
            telemetry=self.realm.telemetry,
        )
        self.files = {"doc": b"data"}
        self.server.register_operation(
            "read", lambda request: {"data": self.files[request.target]}
        )
        self.server.register_operation(
            "delete",
            lambda request: {
                "deleted": self.files.pop(request.target, None) is not None
            },
        )
        self.alice, self.bob = (
            PkClient(
                self.realm.principal(name), self.realm.network,
                self.realm.clock, directory, group=TEST_GROUP, rng=rng,
            )
            for name in ("alice", "bob")
        )

    def grant(self, restrictions):
        now = self.realm.clock.now()
        return grant_public(
            self.alice.principal, self.alice.signer, restrictions,
            now, now + 600, group=TEST_GROUP,
        )

    def cascade(self, proxy, restrictions):
        now = self.realm.clock.now()
        return cascade(proxy, restrictions, now, now + 60)

    def identity(self, operation, target, valid):
        digest = request_digest(operation, target if valid else "elsewhere")
        return {
            "envelope": self.bob._envelope(
                self.server.principal, digest
            ).to_wire()
        }

    def present(self, proxy, operation, target):
        return present(
            proxy, self.server.principal, self.realm.clock.now(), operation,
            target=target,
        ).to_wire()

    @staticmethod
    def certificates(bundle):
        return bundle["certificates"]


FRONT_ENDS = pytest.mark.parametrize(
    "front", [Kerberos, PublicKey], ids=["kerberos", "public-key"]
)


def chain(front):
    """alice's proxy, cascaded once; returns it and its restrictions."""
    root = (
        AcceptOnce(identifier="chk-1"),
        IssuedFor(servers=(front.server.principal,)),
    )
    link = (Quota(currency="bytes", limit=5),)
    return front.cascade(front.grant(root), link), root + link


def payload(
    front, operation="read", amounts=None, proxy=None, valid_identity=True,
    tamper=False, **extra,
):
    body = {
        "operation": operation,
        "target": "doc",
        "args": {},
        "amounts": amounts or {},
        **front.identity(operation, "doc", valid_identity),
        **extra,
    }
    if proxy is not None:
        body["proxy"] = front.present(proxy, operation, "doc")
        if tamper:
            cert = front.certificates(body["proxy"])[0]
            cert["signature"] = cert["signature"][:-1] + bytes(
                [cert["signature"][-1] ^ 1]
            )
    return body


def send(front, body, msg_type="request"):
    return raise_if_error(
        front.realm.network.send(
            front.bob.principal, front.server.principal, msg_type, body
        )
    )


def trace_of(front):
    """What a rejected request must not change."""
    server = front.server
    return (
        server.audit.all(), server.verifier.accept_once.capture_state()
    )


def grant_acl(front, *principals, restrictions=()):
    for principal in principals:
        front.server.acl.add(
            AclEntry(
                subject=SinglePrincipal(principal), restrictions=restrictions
            )
        )


@FRONT_ENDS
def test_error_precedence_and_rejections_leave_no_trace(front):
    front = front()
    proxy, _ = chain(front)
    untouched = trace_of(front)

    def refused(error, match, **kwargs):
        with pytest.raises(error, match=match):
            send(front, payload(front, proxy=proxy, **kwargs))
        assert trace_of(front) == untouched

    refused(
        ServiceError, "amount of 'bytes'",
        amounts={"bytes": -1}, valid_identity=False, tamper=True,
    )
    refused(*front.auth_error, valid_identity=False, tamper=True)
    refused(ProxyVerificationError, "signature of link 0", tamper=True)
    refused(AuthorizationDenied, "may not read doc")
    grant_acl(
        front, front.alice.principal,
        restrictions=(Quota(currency="bytes", limit=1),),
    )
    refused(RestrictionViolation, "quota", amounts={"bytes": 2})
    refused(
        ServiceError, "has no operation 'frobnicate'",
        operation="frobnicate", amounts={"bytes": 1},
    )
    reply = send(front, payload(front, proxy=proxy, amounts={"bytes": 1}))
    assert reply["data"] == b"data"
    audit, accept_once = trace_of(front)
    assert len(audit) == 1 and accept_once != untouched[1]


@FRONT_ENDS
def test_possession_proof_bound_to_its_request(front):
    """bob's anonymous bearer proof, made for ``read doc``, resent with the
    same bundle as ``delete other``: the Kerberos front-end used to verify
    the proof without the request digest and deleted the file."""
    front = front()
    front.files["other"] = b"keep"
    grant_acl(front, front.alice.principal)
    proxy = front.grant((AcceptOnce(identifier="chk-bound"),))
    body = {
        "operation": "read", "target": "doc", "args": {}, "amounts": {},
        "proxy": front.present(proxy, "read", "doc"),
    }
    untouched = trace_of(front)
    with pytest.raises(
        ProxyVerificationError,
        match="possession proof bound to a different request",
    ):
        send(front, {**body, "operation": "delete", "target": "other"})
    assert front.files["other"] == b"keep"
    assert trace_of(front) == untouched


@FRONT_ENDS
@pytest.mark.parametrize(
    "value", [2.9, True, "2", -5], ids=["float", "bool", "str", "negative"]
)
def test_malformed_amount_refused_before_authentication(front, value):
    """Truncated, coerced or negative amounts used to pass the quota."""
    front = front()
    grant_acl(
        front, front.alice.principal,
        restrictions=(Quota(currency="bytes", limit=2),),
    )
    proxy, _ = chain(front)
    body = payload(front, proxy=proxy, amounts={"bytes": value})
    untouched = trace_of(front)
    with pytest.raises(ServiceError, match="amount of 'bytes'"):
        send(front, body)
    assert trace_of(front) == untouched
    # Nothing was consumed: the same envelope or session, proof and
    # accept-once proxy go through once the amount is well formed.
    body["amounts"] = {"bytes": 2}
    assert send(front, body)["data"] == b"data"


@FRONT_ENDS
def test_requests_counted_by_path(front):
    front = front()
    grant_acl(front, front.alice.principal, front.bob.principal)
    proxy, _ = chain(front)
    send(front, payload(front, proxy=proxy))
    send(front, payload(front))
    send(front, payload(front))
    counter = front.realm.telemetry.metrics.get("endserver_requests_total")
    labels = {"service": str(front.server.principal), "operation": "read"}
    assert counter.value(path="proxy", **labels) == 1
    assert counter.value(path=front.identity_path, **labels) == 2


@FRONT_ENDS
def test_handler_sees_request_id_and_presented_restrictions(front):
    front = front()
    seen = []
    front.server.register_operation(
        "inspect", lambda request: seen.append(request) or {}
    )
    grant_acl(front, front.alice.principal)
    proxy, restrictions = chain(front)
    send(front, payload(front, operation="inspect", proxy=proxy, _rid="r-7"))
    (request,) = seen
    assert request.request_id == "r-7"
    assert request.rights == front.alice.principal
    assert request.claimant == front.bob.principal
    assert [r.to_wire() for r in request.presented_restrictions] == [
        r.to_wire() for r in restrictions
    ]


@FRONT_ENDS
def test_presentation_decoded_once_per_request(front, monkeypatch):
    front = front()
    grant_acl(front, front.alice.principal)
    proxy, _ = chain(front)
    body = payload(front, proxy=proxy)
    decode = PresentedProxy.from_wire.__func__
    decoded = []

    def spy(cls, wire):
        decoded.append(wire)
        return decode(cls, wire)

    monkeypatch.setattr(PresentedProxy, "from_wire", classmethod(spy))
    assert send(front, body)["data"] == b"data"
    assert len(decoded) == 1


@pytest.mark.parametrize("msg_type", ["ap-request", "get-challenge"])
def test_public_key_front_end_has_no_kerberos_exchanges(msg_type):
    front = PublicKey()
    with pytest.raises(ServiceError, match="does not handle"):
        send(front, {}, msg_type=msg_type)


def test_public_key_front_end_defines_no_pipeline_of_its_own():
    own = set(vars(PkEndServer))
    assert not own & {
        "op_request", "register_operation", "signature_prefetcher",
        "_operations", "audit",
    }


def client_request(front, proxy, amounts):
    """One ``read`` through the front-end's own client library."""
    if isinstance(front, Kerberos):
        client = front.bob.client_for(front.server.principal)
        return client.request("read", "doc", amounts=amounts, proxy=proxy)
    return front.bob.request(
        front.server.principal, "read", "doc", amounts=amounts, proxy=proxy
    )


@FRONT_ENDS
@pytest.mark.parametrize(
    "value", [2.9, True, "2", -5], ids=["float", "bool", "str", "negative"]
)
def test_clients_send_amounts_as_given(front, value):
    """The clients used to coerce with ``int()``: 2.9 went out as 2."""
    front = front()
    grant_acl(
        front, front.alice.principal,
        restrictions=(Quota(currency="bytes", limit=2),),
    )
    proxy, _ = chain(front)
    untouched = trace_of(front)
    with pytest.raises(ServiceError, match="amount of 'bytes'"):
        client_request(front, proxy, {"bytes": value})
    assert trace_of(front) == untouched
    sent = []
    front.realm.network.add_tap(
        lambda message: message.msg_type == "request" and sent.append(message)
    )
    assert client_request(front, proxy, {"bytes": 2})["data"] == b"data"
    assert sent[-1].payload["amounts"] == {"bytes": 2}
