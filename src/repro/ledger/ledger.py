"""The ledger: atomic postings with rollback and idempotency.

The paper's accounting semantics are transactional in spirit — "once a
check is paid, the accounting server keeps track of the check number"
(§4) ties the balance change and the replay registration into one event.
The seed code made only the *registry* transactional; the ledger makes
the balances match:

* **Atomic postings** — :meth:`Ledger.post` applies all of a posting's
  legs or none of them: if any leg fails (insufficient funds, missing
  hold), the already-applied legs are reversed before the error leaves
  the call.
* **Transaction scopes** — :meth:`Ledger.transaction` groups several
  postings (and whatever else the block does); an exception unwinds
  every posting made inside the block, newest first, so a handler that
  fails after moving funds leaves the books exactly as it found them.
  Scopes nest; the accounting server wraps every RPC in one, enclosing
  the :class:`~repro.core.replay.AcceptOnceRegistry` transaction so
  check-number consumption and balance changes commit or abort together.
* **Idempotency** — a posting applied under a ``dedupe_key`` (the resil
  layer's ``_rid`` retry id) is recorded; re-posting under the same key
  returns the original record without touching balances, so a resent
  request that somehow re-reaches a handler can never double-post.
* **Derived balances** — the ledger maintains its own per-account
  running totals from committed postings; :meth:`audit_discrepancies`
  compares them against the live :class:`~repro.ledger.accounts.Account`
  objects.  Any drift means funds moved *outside* the ledger — fig5's
  scenario check asserts this parity after every chaos unit.

* **Durability** — the ledger is the accounting server's
  :class:`~repro.durable.Durable` component: it logs every *committed*
  posting record (immediately for postings outside a transaction, at the
  outermost commit for postings inside one, never for postings that were
  rolled back) and every account it opens, replays both through
  :meth:`replay`, and snapshots the accounts with its own derived state —
  so the books, the conservation totals, and the idempotency keys all
  survive a process crash (``docs/durability.md``).

Telemetry counters (``ledger.postings_applied_total``,
``ledger.postings_rolled_back_total``, ``ledger.postings_deduped_total``)
land in the obs registry alongside the rest of the server's metrics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bounded import BoundedStore
from repro.clock import Clock
from repro.durable import Durable
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import LedgerError
from repro.ledger.accounts import Account, Hold
from repro.ledger.posting import AVAILABLE, CREDIT, DEBIT, MINT, INBOUND, Posting

#: (account, currency) -> integer amount.
BalanceKey = Tuple[str, str]


class Problem(str):
    """One finding of a consistency check: its text, plus a ``key`` — the
    subject, kind and currency it is about — that stays the same while the
    numbers in the text move, so a drift is reported once, not once per
    check that still sees it."""

    def __new__(cls, text: str, subject: str, kind: str, currency: str = ""):
        problem = super().__new__(cls, text)
        problem.key = (subject, kind, currency)
        return problem


@dataclass
class PostingRecord:
    """One applied posting: what :meth:`Ledger.post` returns, what a
    transaction frame holds until it commits, and what a dedupe key maps
    to."""

    posting_id: int
    posting: Posting
    time: float
    dedupe_key: Optional[str] = None
    #: Trace id of the request that caused this posting (None without
    #: telemetry) — the join key from a balance change back to the full
    #: causal trace of retries, hops, and grants that produced it.
    trace_id: Optional[str] = None
    #: Legs in the order actually applied, with the state needed to undo
    #: them (the removed Hold object for hold-release legs).
    applied: List[Tuple[object, Optional[Hold]]] = field(default_factory=list)


@wire
@dataclass(frozen=True)
class CommittedPosting:
    """A ``posting`` WAL record: one committed :class:`PostingRecord`."""

    posting_id: int
    posting: Posting
    time: float
    dedupe_key: Optional[str]


@wire
@dataclass(frozen=True)
class OpenedAccount:
    """An ``account`` WAL record."""

    name: str
    owner: PrincipalId


@wire
@dataclass(frozen=True)
class AccountState:
    """One account in the ledger's snapshot."""

    owner: PrincipalId
    balances: Dict[str, int]
    holds: Tuple[Hold, ...]


class Ledger(Durable):
    """Atomic, idempotent application of postings to accounts."""

    SNAPSHOT = "accounting"
    RECORDS = ("posting", "account")

    def __init__(
        self,
        accounts: Dict[str, Account],
        clock: Clock,
        telemetry=None,
        server: str = "",
        dedupe_window: float = 300.0,
        max_dedupe: int = 4096,
    ) -> None:
        from repro.obs.telemetry import NO_TELEMETRY

        self.accounts = accounts
        self.clock = clock
        self.telemetry = telemetry if telemetry is not None else NO_TELEMETRY
        self.server = server
        self.dedupe_window = dedupe_window
        #: dedupe_key -> record, held until ``record.time + dedupe_window``.
        self._dedupe = BoundedStore(max_dedupe, clock.now)
        self._txn_stack: List[List[PostingRecord]] = []
        self._next_id = 1
        #: Running totals derived purely from committed postings.
        self.derived_available: Dict[BalanceKey, int] = {}
        self.derived_held: Dict[BalanceKey, int] = {}
        #: Net funds created (mint) and imported (inbound), per currency.
        self.minted: Dict[str, int] = {}
        self.imported: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Applying postings
    # ------------------------------------------------------------------

    def post(
        self, posting: Posting, dedupe_key: Optional[str] = None
    ) -> PostingRecord:
        """Apply ``posting`` atomically; returns its record.

        With ``dedupe_key`` set, a key already applied (and not expired)
        short-circuits: the original record is returned and no balance
        moves.  Validation errors and leg failures leave all balances
        untouched.
        """
        posting.validate()
        if dedupe_key is not None:
            prior = self._dedupe.lookup(dedupe_key)
            if prior is not None:
                self.telemetry.inc(
                    "ledger.postings_deduped_total",
                    help="Postings skipped because their dedupe key "
                    "(retry id) was already applied.",
                    server=self.server,
                )
                if self.telemetry.enabled:
                    self.telemetry.event(
                        "ledger.post.deduped",
                        server=self.server,
                        posting_id=prior.posting_id,
                        kind=posting.kind,
                        first_trace_id=prior.trace_id,
                    )
                return prior
        record = PostingRecord(
            posting_id=self._next_id,
            posting=posting,
            time=self.clock.now(),
            dedupe_key=dedupe_key,
            trace_id=(
                self.telemetry.current_trace_id()
                if self.telemetry.enabled
                else None
            ),
        )
        try:
            for leg in sorted(
                posting.legs, key=lambda l: 0 if l.side == DEBIT else 1
            ):
                undo_state = self._apply_leg(leg)
                record.applied.append((leg, undo_state))
        except BaseException:
            for leg, undo_state in reversed(record.applied):
                self._reverse_leg(leg, undo_state)
            self._count_rollback(posting)
            raise
        self._next_id += 1
        if dedupe_key is not None:
            self._dedupe.put(
                dedupe_key, record, record.time + self.dedupe_window
            )
        if self._txn_stack:
            self._txn_stack[-1].append(record)
        else:
            self._commit(record)
        self._account_totals(posting)
        self.telemetry.inc(
            "ledger.postings_applied_total",
            help="Postings applied to the ledger, by kind.",
            server=self.server,
            kind=posting.kind,
        )
        if self.telemetry.enabled:
            self.telemetry.event(
                "ledger.post",
                server=self.server,
                posting_id=record.posting_id,
                kind=posting.kind,
                legs=len(posting.legs),
            )
        return record

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Roll back every posting made inside the block if it raises.

        Nested scopes compose: an inner commit merges into the enclosing
        frame, so an outer failure still unwinds the inner postings.
        """
        frame: List[PostingRecord] = []
        self._txn_stack.append(frame)
        try:
            yield
        except BaseException:
            for record in reversed(frame):
                self._undo_record(record)
            raise
        finally:
            self._txn_stack.pop()
        if self._txn_stack:
            self._txn_stack[-1].extend(frame)
        else:
            for record in frame:
                self._commit(record)

    def _commit(self, record: PostingRecord) -> None:
        """A record is final — an outer rollback can no longer undo it."""
        self.wal.append("posting", self.record_to_wire(record))

    def open_account(self, account: Account) -> None:
        """Put ``account`` on the books and log it.  Its existence is not
        transactional, like the dict it lives in; an opening balance is a
        posting of its own."""
        self.accounts[account.name] = account
        self.wal.append("account", OpenedAccount(account.name, account.owner))

    # ------------------------------------------------------------------
    # Leg mechanics
    # ------------------------------------------------------------------

    def _account(self, name: str) -> Account:
        try:
            return self.accounts[name]
        except KeyError:
            raise LedgerError(f"posting names unknown account {name!r}") from None

    def _apply_leg(self, leg) -> Optional[Hold]:
        """Apply one leg; returns the state needed to reverse it."""
        account = self._account(leg.account)
        key = (leg.account, leg.currency)
        if leg.bucket == AVAILABLE:
            if leg.side == DEBIT:
                account.debit(leg.currency, leg.amount)
                self.derived_available[key] = (
                    self.derived_available.get(key, 0) - leg.amount
                )
            else:
                account.credit(leg.currency, leg.amount)
                self.derived_available[key] = (
                    self.derived_available.get(key, 0) + leg.amount
                )
            return None
        # Hold bucket.
        if leg.side == CREDIT:
            if leg.hold_id in account.holds:
                raise LedgerError(
                    f"account {leg.account}: hold {leg.hold_id} already exists"
                )
            account.holds[leg.hold_id] = Hold(
                check_number=leg.hold_id,
                currency=leg.currency,
                amount=leg.amount,
                payee=leg.hold_payee,
                expires_at=leg.hold_expires_at,
            )
            self.derived_held[key] = self.derived_held.get(key, 0) + leg.amount
            return None
        hold = account.holds.get(leg.hold_id)
        if hold is None:
            raise LedgerError(
                f"account {leg.account}: no hold {leg.hold_id} to release"
            )
        if hold.currency != leg.currency or hold.amount != leg.amount:
            raise LedgerError(
                f"account {leg.account}: hold {leg.hold_id} is "
                f"{hold.amount} {hold.currency}, posting releases "
                f"{leg.amount} {leg.currency}"
            )
        del account.holds[leg.hold_id]
        self.derived_held[key] = self.derived_held.get(key, 0) - leg.amount
        return hold

    def _reverse_leg(self, leg, undo_state: Optional[Hold]) -> None:
        """Undo one applied leg.  Bypasses validation: the forward
        application already proved the state transition legal, and undo
        must never fail."""
        account = self.accounts[leg.account]
        key = (leg.account, leg.currency)
        if leg.bucket == AVAILABLE:
            delta = leg.amount if leg.side == DEBIT else -leg.amount
            account.balances[leg.currency] = (
                account.balances.get(leg.currency, 0) + delta
            )
            self.derived_available[key] = (
                self.derived_available.get(key, 0) + delta
            )
            return
        if leg.side == CREDIT:
            account.holds.pop(leg.hold_id, None)
            self.derived_held[key] = self.derived_held.get(key, 0) - leg.amount
        else:
            account.holds[leg.hold_id] = undo_state
            self.derived_held[key] = self.derived_held.get(key, 0) + leg.amount

    def _undo_record(self, record: PostingRecord) -> None:
        for leg, undo_state in reversed(record.applied):
            self._reverse_leg(leg, undo_state)
        if record.dedupe_key is not None:
            self._dedupe.pop(record.dedupe_key, None)
        self._account_totals(record.posting, sign=-1)
        self._count_rollback(record.posting)

    def _count_rollback(self, posting: Posting) -> None:
        self.telemetry.inc(
            "ledger.postings_rolled_back_total",
            help="Postings reversed by a failed leg or transaction "
            "rollback, by kind.",
            server=self.server,
            kind=posting.kind,
        )
        if self.telemetry.enabled:
            self.telemetry.event(
                "ledger.rollback",
                server=self.server,
                kind=posting.kind,
            )

    def _account_totals(self, posting: Posting, sign: int = 1) -> None:
        if posting.kind == MINT:
            for leg in posting.legs:
                delta = leg.amount if leg.side == CREDIT else -leg.amount
                self.minted[leg.currency] = (
                    self.minted.get(leg.currency, 0) + sign * delta
                )
        elif posting.kind == INBOUND:
            for leg in posting.legs:
                delta = leg.amount if leg.side == CREDIT else -leg.amount
                self.imported[leg.currency] = (
                    self.imported.get(leg.currency, 0) + sign * delta
                )

    # ------------------------------------------------------------------
    # Durability (see docs/durability.md)
    # ------------------------------------------------------------------

    def record_to_wire(self, record: PostingRecord) -> CommittedPosting:
        """The WAL record for one committed posting, as its declaration
        (the store encodes it straight from that)."""
        return CommittedPosting(
            record.posting_id, record.posting, record.time, record.dedupe_key
        )

    def replay(self, kind: str, data: dict) -> None:
        """Re-open one account or re-apply one posting during recovery.

        An account comes back empty: any opening balance was committed as
        its own posting record and replays there.  A posting replays
        through :meth:`post` — the same validation and leg mechanics as
        the original application — so the rebuilt balances, holds,
        derived totals, and dedupe keys are exactly what a live server
        would hold.  The original posting id and timestamp are restored
        afterwards (``post`` stamps recovery-time values), the dedupe key
        is held until the original ``time + dedupe_window`` as the live
        server held it, and the id counter is bumped past the replayed id
        so post-recovery postings never reuse a pre-crash id.
        """
        if kind == "account":
            opened = OpenedAccount.from_wire(data)
            if opened.name not in self.accounts:
                self.accounts[opened.name] = Account.open(
                    opened.name, opened.owner
                )
            return
        committed = CommittedPosting.from_wire(data)
        record = self.post(committed.posting, dedupe_key=committed.dedupe_key)
        record.posting_id = committed.posting_id
        record.time = committed.time
        if record.dedupe_key is not None:
            self._dedupe.put(
                record.dedupe_key, record, record.time + self.dedupe_window
            )
        self._next_id = max(self._next_id, record.posting_id + 1)

    def capture_state(self) -> dict:
        """The accounts (balances and holds) and the ledger's own derived
        state: id counter, conservation totals, live dedupe keys."""
        return {
            "accounts": {
                name: AccountState(
                    account.owner,
                    account.balances,
                    tuple(account.holds.values()),
                ).to_wire()
                for name, account in self.accounts.items()
            },
            "ledger": {
                "next_id": self._next_id,
                "derived_available": [
                    [account, currency, amount]
                    for (account, currency), amount
                    in self.derived_available.items()
                ],
                "derived_held": [
                    [account, currency, amount]
                    for (account, currency), amount
                    in self.derived_held.items()
                ],
                "minted": dict(self.minted),
                "imported": dict(self.imported),
                "dedupe": [
                    [
                        key,
                        expires_at,
                        record.posting_id,
                        record.posting.to_wire(),
                        record.time,
                    ]
                    for key, record, expires_at in self._dedupe.entries()
                ],
            },
        }

    def restore_state(self, state: dict) -> None:
        """The accounts and derived state :meth:`capture_state` saved."""
        # In place: the owning server shares this same dict object.
        self.accounts.clear()
        for name, data in state["accounts"].items():
            saved = AccountState.from_wire(data)
            account = Account.open(name, saved.owner)
            account.balances.update(saved.balances)
            account.holds.update(
                (hold.check_number, hold) for hold in saved.holds
            )
            self.accounts[name] = account
        ledger = state["ledger"]
        self._next_id = ledger["next_id"]
        self.derived_available = {
            (account, currency): amount
            for account, currency, amount in ledger["derived_available"]
        }
        self.derived_held = {
            (account, currency): amount
            for account, currency, amount in ledger["derived_held"]
        }
        self.minted = dict(ledger["minted"])
        self.imported = dict(ledger["imported"])
        self._dedupe.clear()
        for key, expires_at, posting_id, posting_wire, time in ledger["dedupe"]:
            record = PostingRecord(
                posting_id=posting_id,
                posting=Posting.from_wire(posting_wire),
                time=time,
                dedupe_key=key,
            )
            self._dedupe.put(key, record, expires_at)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, int]:
        """Per-currency sum of derived available + held funds."""
        out: Dict[str, int] = {}
        for (_, currency), amount in self.derived_available.items():
            out[currency] = out.get(currency, 0) + amount
        for (_, currency), amount in self.derived_held.items():
            out[currency] = out.get(currency, 0) + amount
        return {c: v for c, v in out.items() if v}

    def expected_totals(self) -> Dict[str, int]:
        """What :meth:`totals` must equal: minted plus imported funds."""
        out: Dict[str, int] = {}
        for source in (self.minted, self.imported):
            for currency, amount in source.items():
                out[currency] = out.get(currency, 0) + amount
        return {c: v for c, v in out.items() if v}

    def audit_discrepancies(self) -> List[Problem]:
        """Differences between derived balances and live account state.

        Empty means parity: every unit of every currency on the books is
        explained by a committed posting.  Non-empty means funds moved
        outside the ledger (or a rollback half-applied) — the exact class
        of corruption this subsystem exists to rule out.
        """
        problems: List[Problem] = []
        currencies_by_account: Dict[str, set] = {}
        for name, account in self.accounts.items():
            bucket = currencies_by_account.setdefault(name, set())
            bucket.update(account.balances)
            bucket.update(h.currency for h in account.holds.values())
        for (name, currency) in set(self.derived_available) | set(
            self.derived_held
        ):
            currencies_by_account.setdefault(name, set()).add(currency)
        for name, currencies in sorted(currencies_by_account.items()):
            account = self.accounts.get(name)
            for currency in sorted(currencies):
                actual_avail = account.balance(currency) if account else 0
                actual_held = account.held_total(currency) if account else 0
                want_avail = self.derived_available.get((name, currency), 0)
                want_held = self.derived_held.get((name, currency), 0)
                for kind, actual, want in (
                    ("available", actual_avail, want_avail),
                    ("held", actual_held, want_held),
                ):
                    if actual != want:
                        problems.append(Problem(
                            f"{name}/{currency}: {kind} {actual} != "
                            f"ledger-derived {want}",
                            name, kind, currency,
                        ))
        conservation = self.totals()
        expected = self.expected_totals()
        for currency in sorted(set(conservation) | set(expected)):
            actual, want = conservation.get(currency), expected.get(currency)
            if actual != want:
                problems.append(Problem(
                    f"conservation: on-book {currency} total {actual} != "
                    f"minted+imported {want}",
                    "on-book", "conservation", currency,
                ))
        return problems

    def in_transaction(self) -> bool:
        return bool(self._txn_stack)
