"""One session per bank pair: inter-bank clearing reuses its AP session.

A Kerberos ticket and its session key serve until they expire (§6.2), so
an accounting server keeps one authenticated client per peer bank and a
warm Fig. 5 deposit costs the figure's two message pairs — E1 (payee →
payee's bank) and E2 (payee's bank → payor's bank) — and no AP exchange.
A session the peer lost, to a restart or to its ticket's expiry, is
re-established once, on the typed :class:`UnknownSessionError`.
"""

from typing import NamedTuple

import pytest

from repro.durability import DurabilityStore
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    AuthorizationDenied,
    ReplayError,
    UnknownPrincipalError,
    UnknownSessionError,
)
from repro.kerberos.proxy_support import endorse
from repro.net.aio import AioNetwork, drive
from repro.net.message import encode_error, raise_if_error
from repro.services.accounting import (
    AccountingClient,
    AccountingServer,
    non_settlement_totals,
)
from repro.services.checks import ACCOUNT_TARGET_PREFIX
from repro.testbed import Realm

RUNTIMES = ("sync", "aio")
FUNDS = 10_000


class World(NamedTuple):
    realm: Realm
    bank_a: AccountingServer  # the payor's bank
    bank_b: AccountingServer  # the payee's bank
    payor: AccountingClient  # at bank A, account "payor"
    payee: AccountingClient  # at bank B, account "payee"


def world(runtime="sync", hops=0, tmp_path=None):
    """Banks A and B, ``hops`` correspondents routing B's clearings to A,
    a funded payor at A and an empty payee at B."""
    realm = Realm(seed=b"peer-sessions", runtime=runtime)

    def bank(name):
        durability = None
        if tmp_path is not None:
            durability = DurabilityStore(str(tmp_path / name))
        return realm.accounting_server(name, durability=durability)

    bank_a, bank_b = bank("bank-a"), bank("bank-b")
    previous = bank_b
    for i in range(hops):
        middle = bank(f"bank-mid{i}")
        previous.routes[bank_a.principal] = middle.principal
        previous = middle
    payor, payee = realm.user("payor"), realm.user("payee")
    bank_a.create_account("payor", payor.principal, {"dollars": FUNDS})
    bank_b.create_account("payee", payee.principal)
    return World(
        realm,
        bank_a,
        bank_b,
        payor.accounting_client(bank_a.principal),
        payee.accounting_client(bank_b.principal),
    )


def run(w, body):
    if isinstance(w.realm.network, AioNetwork):
        return drive(w.realm.network, body)
    return body()


def write(w, amount, payor=None):
    return (payor or w.payor).write_check(
        "payor", w.payee.principal, "dollars", amount
    )


def deposit(w, amount=1, payor=None):
    return w.payee.deposit_check(write(w, amount, payor), "payee")


def measured(w, action):
    """``action()``'s result and the wire traffic it caused."""
    before = w.realm.network.metrics.snapshot()
    result = action()
    return result, w.realm.network.metrics.delta_since(before)


def peer_sessions(bank, peer):
    """``bank``'s live sessions presented by ``peer``."""
    return [s for s in bank.sessions.values() if s.presenter == peer]


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("hops,messages", [(0, 4), (1, 6), (2, 8)])
def test_a_warm_clearing_is_one_message_pair_per_hop(runtime, hops, messages):
    w = world(runtime, hops)

    def body():
        deposit(w)
        return measured(w, lambda: deposit(w, 5))

    result, delta = run(w, body)
    assert result["paid"] == 5
    assert delta.messages == messages
    assert delta.messages_to(w.bank_a.principal) == 1
    assert "ap-request" not in delta.by_type


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_fifty_deposits_hold_one_session_at_the_payors_bank(runtime):
    w = world(runtime)
    run(w, lambda: [deposit(w) for _ in range(50)])
    assert len(peer_sessions(w.bank_a, w.bank_b.principal)) == 1
    assert w.bank_b.accounts["payee"].balance("dollars") == 50


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_restart_of_the_payors_bank_costs_one_ap_exchange(
    runtime, tmp_path
):
    w = world(runtime, tmp_path=tmp_path)

    def body():
        deposit(w, 3)
        check = write(w, 4)
        restarted = w.realm.crash_restart(w.bank_a)
        result, delta = measured(
            w, lambda: w.payee.deposit_check(check, "payee")
        )
        with pytest.raises(ReplayError):
            w.payee.deposit_check(check, "payee")
        return restarted, result, delta

    restarted, result, delta = run(w, body)
    assert result["paid"] == 4
    # E1, the stale E2 refused, one AP exchange, E2 resent.
    assert delta.by_type["ap-request"] == 1
    assert delta.by_type["request"] == 3
    assert delta.messages == 8
    assert restarted.accounts["payor"].balance("dollars") == FUNDS - 7
    assert w.bank_b.accounts["payee"].balance("dollars") == 7
    assert non_settlement_totals([restarted, w.bank_b]) == {"dollars": FUNDS}


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_an_expired_peer_ticket_is_renewed_on_the_next_deposit(runtime):
    w = world(runtime)
    bank_a, bank_b = w.bank_a, w.bank_b

    def body():
        deposit(w)
        old = bank_b.kerberos.get_ticket(bank_a.principal)
        w.realm.clock.advance(old.expires_at - w.realm.clock.now() + 1)
        return old, deposit(w, 2)

    old, result = run(w, body)
    assert result["paid"] == 2
    new = bank_b.kerberos.get_ticket(bank_a.principal)
    assert new.expires_at > old.expires_at
    # The old session went with its ticket; the new one is the only one.
    (session,) = peer_sessions(bank_a, bank_b.principal)
    assert session.expires_at == new.expires_at
    assert bank_b.accounts["payee"].balance("dollars") == 3


def test_deposits_naming_unknown_payor_banks_leave_no_peer():
    w = world()
    check = write(w, 1)
    endorsed = endorse(
        check.bundle,
        w.payee.service.kerberos.get_ticket(w.bank_a.principal),
        subordinate=w.bank_b.principal,
        additional_restrictions=(),
        issued_at=w.realm.clock.now(),
        expires_at=check.expires_at,
    )
    refused = 0
    for n in range(1000):
        try:
            w.payee.service.request(
                "deposit-check",
                target=f"{ACCOUNT_TARGET_PREFIX}payee",
                args={
                    "bundle": endorsed.transferable(),
                    "payor_server": PrincipalId(
                        f"ghost-{n}", w.realm.realm
                    ).to_wire(),
                    "payor_account": "payor",
                    "currency": "dollars",
                    "amount": 1,
                    "expires_at": check.expires_at,
                    "payee_account": "payee",
                },
            )
        except UnknownPrincipalError:
            refused += 1
    assert refused == 1000
    assert len(w.bank_b._peers) == 0
    assert w.bank_a.accounts["payor"].balance("dollars") == FUNDS
    assert w.bank_b.accounts["payee"].balances == {}


def test_an_evicted_peer_re_establishes():
    w = world()
    bank_c = w.realm.accounting_server("bank-c")
    user = w.realm.user("payor")
    bank_c.create_account("payor", user.principal, {"dollars": FUNDS})
    payor_at = {
        w.bank_a: w.payor,
        bank_c: user.accounting_client(bank_c.principal),
    }
    w.bank_b._peers.max_entries = 1

    def ap_requests(bank):
        _, delta = measured(w, lambda: deposit(w, payor=payor_at[bank]))
        return delta.by_type.get("ap-request", 0)

    # The first deposit also brings up the payee's own session.
    assert [ap_requests(b) for b in (w.bank_a, bank_c)] == [2, 1]
    # bank-c's session pushed bank-a's out: each alternation re-establishes.
    assert [ap_requests(b) for b in (w.bank_a, bank_c, bank_c)] == [1, 1, 0]
    assert list(w.bank_b._peers) == [bank_c.principal]
    assert w.bank_b.accounts["payee"].balance("dollars") == 5


class TestTypedSessionLoss:
    def test_a_lost_session_crosses_the_wire_as_its_own_kind(self):
        payload = encode_error(UnknownSessionError("unknown session id"))
        assert payload["__error__"]["kind"] == "unknown-session"
        with pytest.raises(UnknownSessionError, match="unknown session id"):
            raise_if_error(payload)

    def test_a_dropped_session_is_re_established_and_resent_once(self):
        w = world()
        w.payee.service.establish_session()
        w.bank_b.sessions.clear()
        balance, delta = measured(w, lambda: w.payee.balance("payee"))
        assert balance == {}
        assert delta.by_type == {
            "request": 2, "request-reply": 2,
            "ap-request": 1, "ap-request-reply": 1,
        }

    def test_a_denial_mentioning_session_is_not_resent(self):
        w = world()
        w.bank_b.create_account("session-fund", w.payor.principal)
        w.payee.service.establish_session()
        before = w.realm.network.metrics.snapshot()
        with pytest.raises(AuthorizationDenied, match="session-fund"):
            w.payee.balance("session-fund")
        delta = w.realm.network.metrics.delta_since(before)
        assert delta.by_type == {"request": 1, "request-reply": 1}
