"""F5 — Figure 5: processing a check.

Regenerates the figure's three-message flow (check, E1 endorsement/deposit,
E2 endorsement/forward) and measures:

* same-server vs cross-server clearing latency and message count;
* endorsement-chain depth (multi-hop correspondent clearing);
* the duplicate-check rejection guarantee and its cost;
* certified-check issue + clear.
"""

import pytest

from conftest import fresh_realm, report
from repro.errors import ReplayError


def build_world(hops=0):
    """hops = number of intermediate accounting servers between $1 and $2."""
    realm = fresh_realm(b"f5-%d" % hops)
    payor = realm.user("payor")
    payee = realm.user("payee")
    bank_payor = realm.accounting_server("bank-payor")
    bank_payee = realm.accounting_server("bank-payee")
    bank_payor.create_account("payor", payor.principal, {"dollars": 10**9})
    bank_payee.create_account("payee", payee.principal)
    previous = bank_payee
    for i in range(hops):
        middle = realm.accounting_server(f"bank-mid{i}")
        previous.routes[bank_payor.principal] = middle.principal
        previous = middle
    return realm, payor, payee, bank_payor, bank_payee


def test_same_server_clearing(benchmark):
    realm = fresh_realm(b"f5-same")
    payor = realm.user("payor")
    payee = realm.user("payee")
    bank = realm.accounting_server("bank")
    bank.create_account("payor", payor.principal, {"dollars": 10**9})
    bank.create_account("payee", payee.principal)
    payor_client = payor.accounting_client(bank.principal)
    payee_client = payee.accounting_client(bank.principal)

    def run():
        check = payor_client.write_check(
            "payor", payee.principal, "dollars", 1
        )
        return payee_client.deposit_check(check, "payee")

    result = benchmark(run)
    assert result["paid"] == 1


@pytest.mark.parametrize("hops", [0, 1, 2])
def test_cross_server_clearing(benchmark, hops):
    realm, payor, payee, bank_payor, bank_payee = build_world(hops)
    payor_client = payor.accounting_client(bank_payor.principal)
    payee_client = payee.accounting_client(bank_payee.principal)

    def run():
        check = payor_client.write_check(
            "payor", payee.principal, "dollars", 1
        )
        return payee_client.deposit_check(check, "payee")

    result = benchmark(run)
    assert result["cleared"]


def test_certified_check_flow(benchmark):
    realm, payor, payee, bank_payor, bank_payee = build_world()
    shop = realm.file_server("shop")
    payor_client = payor.accounting_client(bank_payor.principal)
    payee_client = payee.accounting_client(bank_payee.principal)

    def run():
        check = payor_client.write_check(
            "payor", payee.principal, "dollars", 1
        )
        payor_client.certify_check(check, shop.principal)
        return payee_client.deposit_check(check, "payee")

    result = benchmark(run)
    assert result["cleared"]


def test_fig5_message_trace_report(benchmark):
    """The E1/E2 trace with per-hop message counts and audit trail."""
    rows = []
    for hops in (0, 1, 2):
        realm, payor, payee, bank_payor, bank_payee = build_world(hops)
        payor_client = payor.accounting_client(bank_payor.principal)
        payee_client = payee.accounting_client(bank_payee.principal)
        # Warm every server's tickets and peer sessions with one
        # clearing, then measure.
        check = payor_client.write_check(
            "payor", payee.principal, "dollars", 1
        )
        payee_client.deposit_check(check, "payee")
        check = payor_client.write_check(
            "payor", payee.principal, "dollars", 5
        )
        before = realm.network.metrics.snapshot()
        payee_client.deposit_check(check, "payee")
        delta = realm.network.metrics.delta_since(before)
        rows.append(
            (
                f"{2 + hops} servers",
                delta.messages,
                delta.messages_to(bank_payor.principal),
                2 + hops,  # endorsement chain length incl. the check itself
            )
        )
    report(
        "F5 / Fig.5: check clearing by endorsement chain depth (warm tickets)",
        rows,
        ("topology", "total msgs", "msgs to payor's server", "chain links"),
    )
    # One message pair per hop (E1, then E2 over each bank pair's reused
    # session), and only the final debit reaches the payor's server.
    assert rows == [
        ("2 servers", 4, 1, 2),
        ("3 servers", 6, 1, 3),
        ("4 servers", 8, 1, 4),
    ]
    benchmark(lambda: None)


def test_duplicate_check_rejected_report(benchmark):
    """'If ... another check with the same number is seen, it is rejected.'"""
    realm, payor, payee, bank_payor, bank_payee = build_world()
    payor_client = payor.accounting_client(bank_payor.principal)
    payee_client = payee.accounting_client(bank_payee.principal)
    check = payor_client.write_check("payor", payee.principal, "dollars", 7)
    payee_client.deposit_check(check, "payee")
    try:
        payee_client.deposit_check(check, "payee")
        outcome = "ACCEPTED (bug!)"
    except ReplayError:
        outcome = "rejected (accept-once)"
    report(
        "F5: double-deposit attack",
        [("second deposit of the same check", outcome)],
        ("attack", "outcome"),
    )
    assert outcome.startswith("rejected")
    benchmark(lambda: None)
