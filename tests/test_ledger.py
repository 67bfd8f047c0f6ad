"""Unit tests for the transactional ledger core (repro.ledger)."""

from types import SimpleNamespace

import pytest

from repro.clock import SimulatedClock
from repro.encoding.identifiers import PrincipalId
from repro.errors import (
    ConservationError,
    InsufficientFundsError,
    LedgerError,
)
from repro.ledger import (
    INBOUND,
    MINT,
    Account,
    Ledger,
    Leg,
    Posting,
    credit,
    debit,
    place_hold,
    release_hold,
)
from repro.obs import Telemetry

ALICE = PrincipalId("alice", "TEST.ORG")
BOB = PrincipalId("bob", "TEST.ORG")


@pytest.fixture
def clock():
    return SimulatedClock(1000.0)


@pytest.fixture
def accounts():
    return {
        "a": Account(name="a", owner=ALICE),
        "b": Account(name="b", owner=BOB),
    }


@pytest.fixture
def ledger(accounts, clock):
    """A ledger seeded (via a MINT posting) with a=100, b=50 usd, counting
    into a live telemetry registry."""
    led = Ledger(accounts, clock, telemetry=Telemetry())
    led.post(
        Posting(
            legs=(credit("a", "usd", 100), credit("b", "usd", 50)),
            kind=MINT,
        )
    )
    return led


def counted(ledger, name):
    """The ledger's ``ledger.<name>_total`` counter, summed over labels."""
    counter = ledger.telemetry.metrics.get(f"ledger.{name}_total")
    return counter.total() if counter is not None else 0


# ----------------------------------------------------------------------
# Posting validation
# ----------------------------------------------------------------------


class TestPostingValidation:
    def test_balanced_transfer_validates(self):
        Posting(legs=(debit("a", "usd", 5), credit("b", "usd", 5))).validate()

    def test_unbalanced_transfer_is_conservation_error(self):
        with pytest.raises(ConservationError):
            Posting(
                legs=(debit("a", "usd", 5), credit("b", "usd", 6))
            ).validate()

    def test_unbalanced_across_currencies(self):
        with pytest.raises(ConservationError):
            Posting(
                legs=(debit("a", "usd", 5), credit("b", "eur", 5))
            ).validate()

    def test_mint_may_create_funds(self):
        Posting(legs=(credit("a", "usd", 5),), kind=MINT).validate()

    def test_inbound_may_import_funds(self):
        Posting(legs=(credit("a", "usd", 5),), kind=INBOUND).validate()

    def test_empty_posting_rejected(self):
        with pytest.raises(LedgerError):
            Posting(legs=()).validate()

    @pytest.mark.parametrize("amount", [0, -1, True, 1.5, "10"])
    def test_bad_amounts_rejected(self, amount):
        with pytest.raises(LedgerError):
            Posting(legs=(credit("a", "usd", amount),), kind=MINT).validate()

    def test_hold_credit_needs_payee_and_expiry(self):
        with pytest.raises(LedgerError):
            Posting(
                legs=(
                    debit("a", "usd", 5),
                    Leg(
                        account="a",
                        side="credit",
                        currency="usd",
                        amount=5,
                        bucket="hold",
                        hold_id="42",
                    ),
                )
            ).validate()


# ----------------------------------------------------------------------
# Atomic application
# ----------------------------------------------------------------------


class TestAtomicPost:
    def test_transfer_moves_funds(self, ledger, accounts):
        ledger.post(Posting(legs=(debit("a", "usd", 30), credit("b", "usd", 30))))
        assert accounts["a"].balance("usd") == 70
        assert accounts["b"].balance("usd") == 80
        assert ledger.audit_discrepancies() == []

    def test_insufficient_funds_changes_nothing(self, ledger, accounts):
        with pytest.raises(InsufficientFundsError):
            ledger.post(
                Posting(legs=(debit("a", "usd", 1000), credit("b", "usd", 1000)))
            )
        assert accounts["a"].balance("usd") == 100
        assert accounts["b"].balance("usd") == 50
        assert counted(ledger, "postings_rolled_back") == 1
        assert ledger.audit_discrepancies() == []

    def test_partial_failure_reverses_applied_legs(self, ledger, accounts):
        # The debit leg applies, then the credit to a ghost account fails;
        # the debit must be reversed before the error escapes.
        with pytest.raises(LedgerError):
            ledger.post(
                Posting(legs=(debit("a", "usd", 10), credit("ghost", "usd", 10)))
            )
        assert accounts["a"].balance("usd") == 100
        assert ledger.audit_discrepancies() == []

    def test_debits_apply_before_credits(self, ledger, accounts):
        # Leg order in the posting doesn't matter: debits are applied
        # first, so a same-account credit can't mask an overdraft.
        ledger.post(Posting(legs=(credit("b", "usd", 100), debit("a", "usd", 100))))
        assert accounts["a"].balance("usd") == 0
        assert accounts["b"].balance("usd") == 150

    def test_journal_records_postings(self, ledger):
        # The ledger's journal is its WAL: each committed posting is
        # appended there as one ``posting`` record.
        logged = []
        ledger.wal = SimpleNamespace(
            append=lambda kind, data: logged.append((kind, data))
        )
        record = ledger.post(
            Posting(legs=(debit("a", "usd", 1), credit("b", "usd", 1)))
        )
        assert logged == [("posting", ledger.record_to_wire(record))]


# ----------------------------------------------------------------------
# Holds
# ----------------------------------------------------------------------


class TestHolds:
    def place(self, ledger):
        ledger.post(
            Posting(
                legs=(
                    debit("a", "usd", 40),
                    place_hold("a", "usd", 40, "chk-1", BOB, 2000.0),
                )
            )
        )

    def test_place_and_release(self, ledger, accounts):
        self.place(ledger)
        assert accounts["a"].balance("usd") == 60
        assert accounts["a"].held_total("usd") == 40
        ledger.post(
            Posting(
                legs=(
                    release_hold("a", "usd", 40, "chk-1"),
                    credit("b", "usd", 40),
                )
            )
        )
        assert accounts["a"].held_total("usd") == 0
        assert accounts["b"].balance("usd") == 90
        assert ledger.audit_discrepancies() == []

    def test_duplicate_hold_rejected(self, ledger, accounts):
        self.place(ledger)
        with pytest.raises(LedgerError):
            ledger.post(
                Posting(
                    legs=(
                        debit("a", "usd", 10),
                        place_hold("a", "usd", 10, "chk-1", BOB, 2000.0),
                    )
                )
            )
        # Rolled back: available unchanged from after the first hold.
        assert accounts["a"].balance("usd") == 60
        assert accounts["a"].held_total("usd") == 40

    def test_release_must_match_hold_exactly(self, ledger, accounts):
        self.place(ledger)
        with pytest.raises(LedgerError):
            ledger.post(
                Posting(
                    legs=(
                        release_hold("a", "usd", 25, "chk-1"),
                        credit("b", "usd", 25),
                    )
                )
            )
        assert accounts["a"].held_total("usd") == 40
        assert ledger.audit_discrepancies() == []

    def test_release_missing_hold_rejected(self, ledger):
        with pytest.raises(LedgerError):
            ledger.post(
                Posting(
                    legs=(
                        release_hold("a", "usd", 5, "nope"),
                        credit("b", "usd", 5),
                    )
                )
            )


# ----------------------------------------------------------------------
# Transactions
# ----------------------------------------------------------------------


class TestTransactions:
    def test_rollback_unwinds_all_postings(self, ledger, accounts):
        with pytest.raises(RuntimeError):
            with ledger.transaction():
                ledger.post(
                    Posting(legs=(debit("a", "usd", 10), credit("b", "usd", 10)))
                )
                ledger.post(
                    Posting(
                        legs=(
                            debit("a", "usd", 20),
                            place_hold("a", "usd", 20, "chk-9", BOB, 2000.0),
                        )
                    )
                )
                raise RuntimeError("handler failed late")
        assert accounts["a"].balance("usd") == 100
        assert accounts["b"].balance("usd") == 50
        assert accounts["a"].holds == {}
        assert counted(ledger, "postings_rolled_back") == 2
        assert not ledger.in_transaction()
        assert ledger.audit_discrepancies() == []

    def test_commit_keeps_postings(self, ledger, accounts):
        with ledger.transaction():
            ledger.post(
                Posting(legs=(debit("a", "usd", 10), credit("b", "usd", 10)))
            )
        assert accounts["b"].balance("usd") == 60
        assert ledger.audit_discrepancies() == []

    def test_nested_inner_commit_outer_rollback(self, ledger, accounts):
        with pytest.raises(RuntimeError):
            with ledger.transaction():
                with ledger.transaction():
                    ledger.post(
                        Posting(
                            legs=(debit("a", "usd", 10), credit("b", "usd", 10))
                        )
                    )
                raise RuntimeError("outer fails after inner committed")
        assert accounts["a"].balance("usd") == 100
        assert accounts["b"].balance("usd") == 50
        assert ledger.audit_discrepancies() == []

    def test_rollback_removes_dedupe_key(self, ledger, accounts):
        with pytest.raises(RuntimeError):
            with ledger.transaction():
                ledger.post(
                    Posting(legs=(debit("a", "usd", 10), credit("b", "usd", 10))),
                    dedupe_key="rid-1",
                )
                raise RuntimeError("late failure")
        # The key must be forgotten: a client retry after a rolled-back
        # attempt is a *new* application, not a duplicate.
        ledger.post(
            Posting(legs=(debit("a", "usd", 10), credit("b", "usd", 10))),
            dedupe_key="rid-1",
        )
        assert accounts["b"].balance("usd") == 60


# ----------------------------------------------------------------------
# Idempotency
# ----------------------------------------------------------------------


class TestDedupe:
    def test_same_key_applies_once(self, ledger, accounts):
        posting = Posting(legs=(debit("a", "usd", 10), credit("b", "usd", 10)))
        first = ledger.post(posting, dedupe_key="rid-7")
        second = ledger.post(posting, dedupe_key="rid-7")
        assert second is first
        assert accounts["b"].balance("usd") == 60  # applied exactly once
        assert counted(ledger, "postings_deduped") == 1
        assert counted(ledger, "postings_applied") == 2  # the mint, then this

    def test_expired_key_reapplies(self, ledger, accounts, clock):
        posting = Posting(legs=(debit("a", "usd", 10), credit("b", "usd", 10)))
        ledger.post(posting, dedupe_key="rid-8")
        clock.advance(ledger.dedupe_window + 1)
        ledger.post(posting, dedupe_key="rid-8")
        assert accounts["b"].balance("usd") == 70

    def test_no_key_never_dedupes(self, ledger, accounts):
        posting = Posting(legs=(debit("a", "usd", 10), credit("b", "usd", 10)))
        ledger.post(posting)
        ledger.post(posting)
        assert accounts["b"].balance("usd") == 70


# ----------------------------------------------------------------------
# Audit and conservation bookkeeping
# ----------------------------------------------------------------------


class TestAudit:
    def test_clean_ledger_has_no_discrepancies(self, ledger):
        ledger.post(Posting(legs=(debit("a", "usd", 5), credit("b", "usd", 5))))
        assert ledger.audit_discrepancies() == []

    def test_out_of_band_mutation_is_reported(self, ledger, accounts):
        accounts["a"].balances["usd"] += 13  # moved outside the ledger
        problems = ledger.audit_discrepancies()
        assert any("a/usd" in p for p in problems)

    def test_totals_match_minted_plus_imported(self, ledger):
        ledger.post(Posting(legs=(credit("b", "usd", 25),), kind=INBOUND))
        ledger.post(Posting(legs=(debit("a", "usd", 30), credit("b", "usd", 30))))
        assert ledger.totals() == {"usd": 175}
        assert ledger.expected_totals() == {"usd": 175}
        assert ledger.minted == {"usd": 150}
        assert ledger.imported == {"usd": 25}

    def test_totals_are_running_sums_over_many_postings(self, clock):
        fresh = {
            "a": Account(name="a", owner=ALICE, balances={"usd": 0}),
        }
        led = Ledger(fresh, clock)
        for _ in range(50):
            led.post(Posting(legs=(credit("a", "usd", 1),), kind=MINT))
        assert led.totals() == {"usd": 50}
        assert led.expected_totals() == {"usd": 50}
