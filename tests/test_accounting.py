"""Accounting servers: accounts, checks, clearing, holds (§4, Fig. 5)."""

import pytest

from repro.encoding.canonical import encode
from repro.errors import (
    AccountingError,
    AuthorizationDenied,
    CheckError,
    InsufficientFundsError,
    ReplayError,
    RestrictionViolation,
    ServiceError,
    UnknownAccountError,
)
from repro.net import Eavesdropper
from repro.services.accounting import CASHIER_ACCOUNT, SETTLEMENT_PREFIX
from repro.services.checks import Check
from repro.testbed import Realm


@pytest.fixture
def world():
    realm = Realm(seed=b"acct-test")
    alice = realm.user("alice")
    bob = realm.user("bob")
    bank = realm.accounting_server("bank")
    bank.create_account("alice", alice.principal, {"dollars": 100, "pages": 50})
    bank.create_account("bob", bob.principal)
    return realm, alice, bob, bank


def non_settlement_total(server, currency):
    return sum(
        account.balance(currency) + account.held_total(currency)
        for name, account in server.accounts.items()
        if not name.startswith(SETTLEMENT_PREFIX)
    )


class TestAccounts:
    def test_multi_currency_balances(self, world):
        realm, alice, bob, bank = world
        balances = alice.accounting_client(bank.principal).balance("alice")
        assert balances == {"dollars": 100, "pages": 50}

    def test_open_account(self, world):
        realm, alice, bob, bank = world
        carol = realm.user("carol")
        client = carol.accounting_client(bank.principal)
        account = client.open_account("carol")
        assert account.account == "carol"
        assert client.balance("carol") == {}

    def test_duplicate_account_rejected(self, world):
        realm, alice, bob, bank = world
        client = alice.accounting_client(bank.principal)
        with pytest.raises(AccountingError):
            client.open_account("alice")

    def test_balance_requires_ownership(self, world):
        realm, alice, bob, bank = world
        with pytest.raises(AuthorizationDenied):
            bob.accounting_client(bank.principal).balance("alice")

    def test_unknown_account(self, world):
        realm, alice, bob, bank = world
        with pytest.raises(UnknownAccountError):
            alice.accounting_client(bank.principal).balance("ghost")

    def test_transfer(self, world):
        """Quota-by-transfer (§4): funds move between accounts."""
        realm, alice, bob, bank = world
        client = alice.accounting_client(bank.principal)
        client.transfer("alice", "bob", "pages", 20)
        assert client.balance("alice")["pages"] == 30
        assert bob.accounting_client(bank.principal).balance("bob") == {
            "pages": 20
        }

    def test_transfer_needs_funds(self, world):
        realm, alice, bob, bank = world
        client = alice.accounting_client(bank.principal)
        with pytest.raises(InsufficientFundsError):
            client.transfer("alice", "bob", "dollars", 1000)

    def test_transfer_needs_ownership(self, world):
        realm, alice, bob, bank = world
        with pytest.raises(AuthorizationDenied):
            bob.accounting_client(bank.principal).transfer(
                "alice", "bob", "dollars", 1
            )


class TestSameServerChecks:
    def test_clearing_moves_funds(self, world):
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 30
        )
        result = bob.accounting_client(bank.principal).deposit_check(
            check, "bob"
        )
        assert result["paid"] == 30
        assert bank.accounts["alice"].balance("dollars") == 70
        assert bank.accounts["bob"].balance("dollars") == 30

    def test_conservation(self, world):
        realm, alice, bob, bank = world
        before = non_settlement_total(bank, "dollars")
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 30
        )
        bob.accounting_client(bank.principal).deposit_check(check, "bob")
        assert non_settlement_total(bank, "dollars") == before

    def test_duplicate_deposit_rejected(self, world):
        """§4: a paid check number is remembered until expiry."""
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 10
        )
        client = bob.accounting_client(bank.principal)
        client.deposit_check(check, "bob")
        with pytest.raises(ReplayError):
            client.deposit_check(check, "bob")

    def test_partial_amount(self, world):
        """'The payee transfers up to that limit.'"""
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 30
        )
        result = bob.accounting_client(bank.principal).deposit_check(
            check, "bob", amount=12
        )
        assert result["paid"] == 12
        assert bank.accounts["alice"].balance("dollars") == 88

    def test_over_limit_rejected(self, world):
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 30
        )
        with pytest.raises(RestrictionViolation):
            bob.accounting_client(bank.principal).deposit_check(
                check, "bob", amount=31
            )

    def test_non_payee_cannot_deposit(self, world):
        realm, alice, bob, bank = world
        carol = realm.user("carol")
        bank.create_account("carol", carol.principal)
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 10
        )
        with pytest.raises(RestrictionViolation):
            carol.accounting_client(bank.principal).deposit_check(
                check, "carol"
            )

    def test_bounced_check_stays_cashable(self, world):
        """A failed clearing must not burn the check number (§4)."""
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 90
        )
        client = bob.accounting_client(bank.principal)
        # Drain alice below the check amount.
        alice.accounting_client(bank.principal).transfer(
            "alice", "bob", "dollars", 50
        )
        with pytest.raises(InsufficientFundsError):
            client.deposit_check(check, "bob")
        # Refund alice; the same check must now clear.
        bob.accounting_client(bank.principal).transfer(
            "bob", "alice", "dollars", 50
        )
        result = client.deposit_check(check, "bob")
        assert result["paid"] == 90

    def test_expired_check_rejected(self, world):
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 10, lifetime=10.0
        )
        realm.clock.advance(11.0)
        with pytest.raises(Exception):
            bob.accounting_client(bank.principal).deposit_check(check, "bob")

    def test_check_wire_round_trip(self, world):
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 10
        )
        again = Check.from_wire(check.to_wire())
        result = bob.accounting_client(bank.principal).deposit_check(
            again, "bob"
        )
        assert result["paid"] == 10

    def test_zero_amount_check_rejected(self, world):
        realm, alice, bob, bank = world
        with pytest.raises(CheckError):
            alice.accounting_client(bank.principal).write_check(
                "alice", bob.principal, "dollars", 0
            )


class TestCrossServerChecks:
    @pytest.fixture
    def two_banks(self, world):
        realm, alice, bob, bank = world
        bank2 = realm.accounting_server("bank2")
        carol = realm.user("carol")
        bank2.create_account("carol", carol.principal)
        return realm, alice, carol, bank, bank2

    def test_fig5_clearing(self, two_banks):
        realm, alice, carol, bank, bank2 = two_banks
        check = alice.accounting_client(bank.principal).write_check(
            "alice", carol.principal, "dollars", 25
        )
        result = carol.accounting_client(bank2.principal).deposit_check(
            check, "carol"
        )
        assert result["cleared"]
        assert bank.accounts["alice"].balance("dollars") == 75
        assert bank2.accounts["carol"].balance("dollars") == 25
        # Interbank settlement recorded at the payor's server.
        settlement = bank.accounts[f"{SETTLEMENT_PREFIX}bank2"]
        assert settlement.balance("dollars") == 25

    def test_cross_server_conservation(self, two_banks):
        realm, alice, carol, bank, bank2 = two_banks
        before = non_settlement_total(bank, "dollars") + non_settlement_total(
            bank2, "dollars"
        )
        check = alice.accounting_client(bank.principal).write_check(
            "alice", carol.principal, "dollars", 25
        )
        carol.accounting_client(bank2.principal).deposit_check(check, "carol")
        after = non_settlement_total(bank, "dollars") + non_settlement_total(
            bank2, "dollars"
        )
        assert after == before

    def test_duplicate_cross_server_deposit_rejected(self, two_banks):
        realm, alice, carol, bank, bank2 = two_banks
        check = alice.accounting_client(bank.principal).write_check(
            "alice", carol.principal, "dollars", 10
        )
        client = carol.accounting_client(bank2.principal)
        client.deposit_check(check, "carol")
        with pytest.raises(ReplayError):
            client.deposit_check(check, "carol")

    def test_multi_hop_clearing(self, two_banks):
        """'Subsequent accounting servers repeat the process' (§4)."""
        realm, alice, carol, bank, bank2 = two_banks
        bank3 = realm.accounting_server("bank3")
        # bank2 routes collections on bank through bank3.
        bank2.routes[bank.principal] = bank3.principal
        check = alice.accounting_client(bank.principal).write_check(
            "alice", carol.principal, "dollars", 10
        )
        result = carol.accounting_client(bank2.principal).deposit_check(
            check, "carol"
        )
        assert result["cleared"]
        assert bank2.accounts["carol"].balance("dollars") == 10
        # bank3 presented to bank: its settlement account there grew.
        assert bank.accounts[f"{SETTLEMENT_PREFIX}bank3"].balance(
            "dollars"
        ) == 10
        # bank2's claim is on bank3.
        assert bank3.accounts[f"{SETTLEMENT_PREFIX}bank2"].balance(
            "dollars"
        ) == 10


class TestCertifiedChecks:
    def test_certification_places_hold(self, world):
        realm, alice, bob, bank = world
        fs = realm.file_server("shop")
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 40)
        certification = client.certify_check(check, fs.principal)
        assert certification.grantor == bank.principal
        assert bank.accounts["alice"].balance("dollars") == 60
        assert bank.accounts["alice"].holds[check.number].amount == 40

    def test_certified_check_clears_from_hold(self, world):
        realm, alice, bob, bank = world
        fs = realm.file_server("shop")
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 40)
        client.certify_check(check, fs.principal)
        # Even if alice spends her whole remaining balance...
        client.transfer("alice", "bob", "dollars", 60)
        # ...the certified check still clears.
        result = bob.accounting_client(bank.principal).deposit_check(
            check, "bob"
        )
        assert result["paid"] == 40
        assert check.number not in bank.accounts["alice"].holds

    def test_partial_clear_returns_remainder(self, world):
        realm, alice, bob, bank = world
        fs = realm.file_server("shop")
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 40)
        client.certify_check(check, fs.principal)
        bob.accounting_client(bank.principal).deposit_check(
            check, "bob", amount=25
        )
        assert bank.accounts["alice"].balance("dollars") == 75
        assert bank.accounts["bob"].balance("dollars") == 25

    def test_double_certification_rejected(self, world):
        realm, alice, bob, bank = world
        fs = realm.file_server("shop")
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 10)
        client.certify_check(check, fs.principal)
        with pytest.raises(CheckError):
            client.certify_check(check, fs.principal)

    def test_certification_needs_funds(self, world):
        realm, alice, bob, bank = world
        fs = realm.file_server("shop")
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 500)
        with pytest.raises(InsufficientFundsError):
            client.certify_check(check, fs.principal)

    def test_cancel_after_expiry_returns_funds(self, world):
        realm, alice, bob, bank = world
        fs = realm.file_server("shop")
        client = alice.accounting_client(bank.principal)
        check = client.write_check(
            "alice", bob.principal, "dollars", 40, lifetime=10.0
        )
        client.certify_check(check, fs.principal)
        realm.clock.advance(11.0)
        result = client.cancel_certified_check("alice", check.number)
        assert result["returned"] == 40
        assert bank.accounts["alice"].balance("dollars") == 100

    def test_cancel_before_expiry_rejected(self, world):
        realm, alice, bob, bank = world
        fs = realm.file_server("shop")
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 40)
        client.certify_check(check, fs.principal)
        with pytest.raises(CheckError):
            client.cancel_certified_check("alice", check.number)

    def test_certification_verifiable_at_end_server(self, world):
        """The payee's end-server can verify the certification proxy."""
        realm, alice, bob, bank = world
        fs = realm.file_server("shop")
        client = alice.accounting_client(bank.principal)
        check = client.write_check("alice", bob.principal, "dollars", 40)
        certification = client.certify_check(check, fs.principal)
        from repro.core.evaluation import RequestContext

        wire = certification.presentation(
            fs.principal,
            realm.clock.now(),
            "verify-certification",
            target=f"check:{check.number}",
        )
        verified = fs.acceptor.accept(
            wire,
            RequestContext(
                server=fs.principal,
                operation="verify-certification",
                target=f"check:{check.number}",
            ),
        )
        assert verified.grantor == bank.principal


class TestAccountingEdgeCases:
    @pytest.fixture
    def world(self):
        realm = Realm(seed=b"edge-acct")
        alice = realm.user("alice")
        bank = realm.accounting_server("bank")
        bank.create_account("alice", alice.principal, {"dollars": 10})
        return realm, alice, bank

    def test_transfer_to_missing_account(self, world):
        realm, alice, bank = world
        with pytest.raises(UnknownAccountError):
            alice.accounting_client(bank.principal).transfer(
                "alice", "ghost", "dollars", 1
            )

    def test_bad_target_format(self, world):
        realm, alice, bank = world
        from repro.net.message import raise_if_error

        client = alice.client_for(bank.principal)
        with pytest.raises(ServiceError):
            client.request("balance", target="not-an-account-target")

    def test_deposit_check_drawn_on_self_via_deposit_op(self, world):
        """Same-server checks must use the debit path, not deposit-check."""
        realm, alice, bank = world
        bob = realm.user("bob")
        bank.create_account("bob", bob.principal)
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 1
        )
        from repro.kerberos.proxy_support import endorse

        creds = bob.kerberos.get_ticket(bank.principal)
        endorsed = endorse(
            check.bundle, creds, bank.principal, (),
            realm.clock.now(), check.expires_at,
        )
        client = bob.client_for(bank.principal)
        with pytest.raises(CheckError):
            client.request(
                "deposit-check",
                target="account:bob",
                args={
                    "bundle": endorsed.transferable(),
                    "payor_server": bank.principal.to_wire(),
                    "payor_account": "alice",
                    "currency": "dollars",
                    "amount": 1,
                    "expires_at": check.expires_at,
                    "payee_account": "bob",
                },
            )

    def test_debit_without_proxy_denied(self, world):
        realm, alice, bank = world
        client = alice.client_for(bank.principal)
        with pytest.raises(AuthorizationDenied):
            client.request(
                "debit", target="account:alice",
                args={
                    "currency": "dollars", "amount": 1,
                    "credit_account": "alice",
                },
                amounts={"dollars": 1},
            )

    def test_mismatched_amount_declaration(self, world):
        realm, alice, bank = world
        bob = realm.user("bob")
        bank.create_account("bob", bob.principal)
        check = alice.accounting_client(bank.principal).write_check(
            "alice", bob.principal, "dollars", 5
        )
        from repro.services.checks import account_target

        client = bob.client_for(bank.principal)
        with pytest.raises(CheckError):
            client.request(
                "debit",
                target=account_target(check.payor_account),
                args={
                    "currency": "dollars",
                    "amount": 5,
                    "credit_account": "bob",
                },
                amounts={"dollars": 3},  # declared != requested
                proxy=check.bundle,
            )


class TestCashiersChecks:
    @pytest.fixture
    def world(self):
        realm = Realm(seed=b"cashier-test")
        alice = realm.user("alice")
        bob = realm.user("bob")
        bank = realm.accounting_server("bank")
        bank.create_account("alice", alice.principal, {"dollars": 100})
        bank.create_account("bob", bob.principal)
        return realm, alice, bob, bank

    def test_payor_is_the_bank(self, world):
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).purchase_cashiers_check(
            "alice", bob.principal, "dollars", 40
        )
        assert check.payor == bank.principal
        assert check.drawn_on == bank.principal
        assert check.payor_account.account == CASHIER_ACCOUNT

    def test_funds_move_at_purchase(self, world):
        realm, alice, bob, bank = world
        alice.accounting_client(bank.principal).purchase_cashiers_check(
            "alice", bob.principal, "dollars", 40
        )
        assert bank.accounts["alice"].balance("dollars") == 60
        assert bank.accounts[CASHIER_ACCOUNT].balance("dollars") == 40

    def test_clears_from_cashier_account(self, world):
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).purchase_cashiers_check(
            "alice", bob.principal, "dollars", 40
        )
        result = bob.accounting_client(bank.principal).deposit_check(
            check, "bob"
        )
        assert result["paid"] == 40
        assert bank.accounts[CASHIER_ACCOUNT].balance("dollars") == 0
        assert bank.accounts["bob"].balance("dollars") == 40

    def test_guaranteed_even_if_purchaser_drained(self, world):
        """The cashier's-check guarantee: purchaser's account is irrelevant
        after purchase."""
        realm, alice, bob, bank = world
        client = alice.accounting_client(bank.principal)
        check = client.purchase_cashiers_check(
            "alice", bob.principal, "dollars", 40
        )
        client.transfer("alice", "bob", "dollars", 60)  # drain alice
        result = bob.accounting_client(bank.principal).deposit_check(
            check, "bob"
        )
        assert result["paid"] == 40

    def test_purchase_needs_funds(self, world):
        realm, alice, bob, bank = world
        with pytest.raises(InsufficientFundsError):
            alice.accounting_client(bank.principal).purchase_cashiers_check(
                "alice", bob.principal, "dollars", 500
            )

    def test_only_owner_purchases(self, world):
        realm, alice, bob, bank = world
        with pytest.raises(AuthorizationDenied):
            bob.accounting_client(bank.principal).purchase_cashiers_check(
                "alice", bob.principal, "dollars", 10
            )

    def test_only_payee_deposits(self, world):
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).purchase_cashiers_check(
            "alice", bob.principal, "dollars", 10
        )
        carol = realm.user("carol")
        bank.create_account("carol", carol.principal)
        with pytest.raises(RestrictionViolation):
            carol.accounting_client(bank.principal).deposit_check(
                check, "carol"
            )

    def test_double_deposit_rejected(self, world):
        realm, alice, bob, bank = world
        check = alice.accounting_client(bank.principal).purchase_cashiers_check(
            "alice", bob.principal, "dollars", 10
        )
        client = bob.accounting_client(bank.principal)
        client.deposit_check(check, "bob")
        with pytest.raises(ReplayError):
            client.deposit_check(check, "bob")

    def test_root_proxy_key_crosses_no_frame(self, world):
        """Fig. 3's {Kproxy}Ksession: the purchase reply seals the check's
        root proxy key under the purchaser's session key."""
        realm, alice, bob, bank = world
        bank2 = realm.accounting_server("bank2")
        carol = realm.user("carol")
        bank2.create_account("carol", carol.principal)
        mallory = Eavesdropper()
        mallory.attach(realm.network)
        check = alice.accounting_client(bank.principal).purchase_cashiers_check(
            "alice", carol.principal, "dollars", 15
        )
        result = carol.accounting_client(bank2.principal).deposit_check(
            check, "carol"
        )
        assert result["cleared"]
        assert bank2.accounts["carol"].balance("dollars") == 15
        key = check.bundle.proxy.proxy_key.secret
        assert len(key) == 32
        assert mallory.messages_of_type("request-reply")
        assert not any(
            key in encode(message.payload) for message in mallory.captured
        )

    def test_cross_server_deposit(self, world):
        realm, alice, bob, bank = world
        bank2 = realm.accounting_server("bank2")
        carol = realm.user("carol")
        bank2.create_account("carol", carol.principal)
        check = alice.accounting_client(bank.principal).purchase_cashiers_check(
            "alice", carol.principal, "dollars", 15
        )
        result = carol.accounting_client(bank2.principal).deposit_check(
            check, "carol"
        )
        assert result["cleared"]
        assert bank2.accounts["carol"].balance("dollars") == 15
