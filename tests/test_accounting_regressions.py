"""Regression tests for fund-destroying accounting bugs.

Each test pins a specific pre-ledger failure mode:

* ``_op_debit`` debited the payor (or consumed a certified hold) *before*
  resolving the credit destination, so an unknown ``credit_account``
  raised after the debit and the funds simply vanished — the accept-once
  registry rolled back, the balance did not.
* ``open-account`` accepted any name, so a squatter could pre-create
  ``settlement:<peer>`` (or ``cashier``) and silently collect every
  future inter-server settlement credit.
* Amounts and expiries were trusted from the client: a negative amount
  reaching the certified-hold path deleted the hold and over-credited,
  and an arbitrary ``expires_at`` locked funds forever.
"""

import pytest

from repro.core.restrictions import (
    AcceptOnce,
    Authorized,
    AuthorizedEntry,
    Quota,
)
from repro.errors import (
    AccountingError,
    CheckError,
    ReproError,
    WireSchemaError,
)
from repro.kerberos.proxy_support import grant_via_credentials
from repro.services.accounting import CASHIER_ACCOUNT, SETTLEMENT_PREFIX
from repro.services.checks import (
    ACCOUNT_TARGET_PREFIX,
    DEBIT_OPERATION,
    account_target,
)
from repro.testbed import Realm


def non_settlement_total(server, currency):
    return sum(
        account.balance(currency) + account.held_total(currency)
        for name, account in server.accounts.items()
        if not name.startswith(SETTLEMENT_PREFIX)
    )


@pytest.fixture
def realm():
    return Realm(seed=b"acct-regressions")


@pytest.fixture
def bank(realm):
    return realm.accounting_server("bank")


@pytest.fixture
def alice(realm, bank):
    user = realm.user("alice")
    bank.create_account("alice", user.principal, {"dollars": 100})
    return user


@pytest.fixture
def bob(realm, bank):
    user = realm.user("bob")
    bank.create_account("bob", user.principal)
    return user


# ----------------------------------------------------------------------
# Bug 1: fund destruction via unknown credit_account
# ----------------------------------------------------------------------


class TestDebitDestinationResolvedFirst:
    def _bearer_check(self, realm, alice, bank, number="bearer-1"):
        """A check with no grantee: anyone holding it may present it
        anonymously, so ``claimant`` is None at the server and an unknown
        ``credit_account`` cannot fall back to a settlement account —
        exactly the path that used to destroy funds."""
        credentials = alice.kerberos.get_ticket(bank.principal)
        restrictions = (
            AcceptOnce(identifier=number),
            Quota(currency="dollars", limit=30),
            Authorized(
                entries=(
                    AuthorizedEntry(
                        target=f"{ACCOUNT_TARGET_PREFIX}alice",
                        operations=(DEBIT_OPERATION,),
                    ),
                )
            ),
        )
        return grant_via_credentials(
            credentials, restrictions, issued_at=realm.clock.now()
        )

    def test_unknown_credit_account_conserves_funds(
        self, realm, bank, alice, bob
    ):
        bundle = self._bearer_check(realm, alice, bank)
        before = non_settlement_total(bank, "dollars")
        with pytest.raises(CheckError, match="to credit"):
            bob.client_for(bank.principal).request(
                DEBIT_OPERATION,
                target=f"{ACCOUNT_TARGET_PREFIX}alice",
                args={
                    "currency": "dollars",
                    "amount": 30,
                    "credit_account": "ghost",
                },
                amounts={"dollars": 30},
                proxy=bundle,
                anonymous=True,
            )
        # Pre-fix: alice lost 30 dollars here and nobody gained them.
        assert bank.accounts["alice"].balance("dollars") == 100
        assert non_settlement_total(bank, "dollars") == before
        assert bank.ledger.audit_discrepancies() == []

    def test_check_still_cashable_after_failed_presentation(
        self, realm, bank, alice, bob
    ):
        bundle = self._bearer_check(realm, alice, bank, number="bearer-2")
        client = bob.client_for(bank.principal)
        with pytest.raises(CheckError):
            client.request(
                DEBIT_OPERATION,
                target=f"{ACCOUNT_TARGET_PREFIX}alice",
                args={
                    "currency": "dollars",
                    "amount": 30,
                    "credit_account": "ghost",
                },
                amounts={"dollars": 30},
                proxy=bundle,
                anonymous=True,
            )
        # The accept-once rollback and the ledger rollback agree: the
        # bounced presentation consumed nothing, so the same check clears
        # fine against a real account.
        result = client.request(
            DEBIT_OPERATION,
            target=f"{ACCOUNT_TARGET_PREFIX}alice",
            args={
                "currency": "dollars",
                "amount": 30,
                "credit_account": "bob",
            },
            amounts={"dollars": 30},
            proxy=bundle,
            anonymous=True,
        )
        assert result["paid"] == 30
        assert bank.accounts["alice"].balance("dollars") == 70
        assert bank.accounts["bob"].balance("dollars") == 30

    def test_certified_hold_survives_bad_destination(
        self, realm, bank, alice, bob
    ):
        """The hold path was the nastier variant: the hold was deleted and
        the remainder re-credited before the destination lookup raised."""
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 40)
        client.certify_check(check, bank.principal)
        assert bank.accounts["alice"].held_total("dollars") == 40
        with pytest.raises(ReproError):
            bob.client_for(bank.principal).request(
                DEBIT_OPERATION,
                target=account_target(check.payor_account),
                args={
                    "currency": "dollars",
                    "amount": 40,
                    "credit_account": "ghost",
                },
                amounts={"dollars": 40},
                proxy=check.bundle,
                anonymous=True,
            )
        assert bank.accounts["alice"].held_total("dollars") == 40
        assert bank.accounts["alice"].balance("dollars") == 60
        assert bank.ledger.audit_discrepancies() == []


# ----------------------------------------------------------------------
# Bug 2: reserved-name squatting
# ----------------------------------------------------------------------


class TestReservedNames:
    @pytest.mark.parametrize(
        "name",
        [
            CASHIER_ACCOUNT,
            f"{SETTLEMENT_PREFIX}bank",
            f"{SETTLEMENT_PREFIX}anything-at-all",
        ],
    )
    def test_open_account_rejects_reserved_names(self, realm, bank, name):
        mallory = realm.user("mallory")
        client = mallory.accounting_client(bank.principal)
        with pytest.raises(AccountingError, match="reserved"):
            client.open_account(name)
        assert name not in bank.accounts or name == CASHIER_ACCOUNT

    def test_settlement_account_must_be_owned_by_peer(self, realm, bank):
        """Even if a squatted account exists (e.g. created server-side by
        mistake), settlement resolution refuses to pay into it."""
        mallory = realm.user("mallory")
        peer = realm.principal("otherbank")
        bank.create_account(
            f"{SETTLEMENT_PREFIX}{peer.name}", mallory.principal
        )
        with pytest.raises(AccountingError, match="owned by"):
            bank._settlement_account(peer)

    def test_cross_server_settlement_hijack_is_blocked(self, realm):
        """End-to-end: a squatted settlement account at the payor bank
        makes the deposit fail — atomically, with the payor's funds and
        the check both intact."""
        bank_a = realm.accounting_server("bank-a")
        bank_b = realm.accounting_server("bank-b")
        payor = realm.user("payor")
        payee = realm.user("payee")
        mallory = realm.user("mallory2")
        bank_a.create_account("payor", payor.principal, {"dollars": 50})
        bank_b.create_account("payee", payee.principal)
        # Mallory squats bank-b's settlement account at bank-a.
        bank_a.create_account(
            f"{SETTLEMENT_PREFIX}{bank_b.principal.name}", mallory.principal
        )
        check = payor.accounting_client(bank_a.principal).write_check(
            "payor", payee.principal, "dollars", 20
        )
        with pytest.raises(ReproError):
            payee.accounting_client(bank_b.principal).deposit_check(
                check, "payee"
            )
        assert bank_a.accounts["payor"].balance("dollars") == 50
        squatted = bank_a.accounts[
            f"{SETTLEMENT_PREFIX}{bank_b.principal.name}"
        ]
        assert squatted.balance("dollars") == 0
        assert bank_a.ledger.audit_discrepancies() == []
        assert bank_b.ledger.audit_discrepancies() == []


# ----------------------------------------------------------------------
# Bug 3: missing amount/expiry validation
# ----------------------------------------------------------------------


class TestBoundaryValidation:
    @pytest.mark.parametrize("amount", [0, -1, -50])
    def test_transfer_rejects_non_positive_amounts(
        self, realm, bank, alice, bob, amount
    ):
        client = alice.accounting_client(bank.principal)
        with pytest.raises(WireSchemaError, match="amount: .* is below 1"):
            client.transfer("alice", "bob", "dollars", amount)
        assert bank.accounts["alice"].balance("dollars") == 100
        assert bank.accounts["bob"].balance("dollars") == 0

    def test_negative_amount_cannot_raid_certified_hold(
        self, realm, bank, alice, bob
    ):
        """Pre-fix: clearing a certified check for a negative amount
        deleted the hold and credited the payor hold.amount - amount —
        more than was ever held."""
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 40)
        client.certify_check(check, bank.principal)
        total_before = non_settlement_total(bank, "dollars")
        with pytest.raises(ReproError):
            bob.accounting_client(bank.principal).deposit_check(
                check, "bob", amount=-10
            )
        assert bank.accounts["alice"].held_total("dollars") == 40
        assert bank.accounts["alice"].balance("dollars") == 60
        assert non_settlement_total(bank, "dollars") == total_before
        assert bank.ledger.audit_discrepancies() == []

    def test_certify_rejects_inflated_expiry(self, realm, bank, alice, bob):
        """A hostile client forging a far-future ``expires_at`` (the
        client helper clamps to the ticket lifetime, so go raw) must not
        get a hold — funds would be locked past any check's useful life."""
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 10)
        with pytest.raises(CheckError, match="expires_at"):
            client.service.request(
                "certify-check",
                target=account_target(check.payor_account),
                args={
                    "account": "alice",
                    "check_number": check.number,
                    "payee": check.payee.to_wire(),
                    "currency": check.currency,
                    "amount": check.amount,
                    "end_server": bank.principal.to_wire(),
                    "expires_at": realm.clock.now() + 10.0**9,
                },
            )
        assert bank.accounts["alice"].holds == {}
        assert bank.accounts["alice"].balance("dollars") == 100

    def test_certify_rejects_past_expiry(self, realm, bank, alice, bob):
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 10)
        with pytest.raises(CheckError, match="expires_at"):
            client.service.request(
                "certify-check",
                target=account_target(check.payor_account),
                args={
                    "account": "alice",
                    "check_number": check.number,
                    "payee": check.payee.to_wire(),
                    "currency": check.currency,
                    "amount": check.amount,
                    "end_server": bank.principal.to_wire(),
                    "expires_at": realm.clock.now() - 1.0,
                },
            )
        assert bank.accounts["alice"].holds == {}

    def test_cashiers_check_rejects_inflated_expiry(
        self, realm, bank, alice, bob
    ):
        client = alice.accounting_client(bank.principal)
        with pytest.raises(CheckError, match="expires_at"):
            client.purchase_cashiers_check(
                "alice", bob.principal, "dollars", 10, lifetime=10.0**9
            )
        assert bank.accounts["alice"].balance("dollars") == 100
        assert bank.accounts[CASHIER_ACCOUNT].balance("dollars") == 0
