"""Seeded property-based workload fuzzer for the accounting subsystem.

``python -m repro fuzz --seed 7 --episodes 200`` stands up a small realm
of banks and users, then drives seeded random episodes across the whole
accounting surface — ordinary checks, cross-server endorsement cascades
(Fig. 5), certified checks (including partial clears and post-expiry
cancellation), cashier's checks, intra-bank transfers, deliberate
replays, and malformed arguments — optionally under the resilience
layer's fault injection.  After *every* episode it asserts the two
invariants the ledger exists to protect:

* **Global conservation** — the sum of available + held funds over all
  non-settlement accounts, across every bank, equals exactly what was
  minted at setup.  No operation, failed or successful, may create or
  destroy funds.
* **Audit parity** — each bank's live account state matches the balances
  derived purely from its committed ledger postings
  (:meth:`~repro.ledger.ledger.Ledger.audit_discrepancies`).

A violation is recorded (with the episode that caused it) rather than
raised, so one report captures everything; callers treat a non-empty
``violations`` list as failure.  Everything is deterministic in the seed.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.durability import DurabilityStore
from repro.errors import ReproError
from repro.obs.telemetry import Telemetry
from repro.resil.policy import RetryPolicy
from repro.services.accounting import (
    AccountingClient,
    AccountingServer,
    CASHIER_ACCOUNT,
    SETTLEMENT_PREFIX,
)
from repro.testbed import Realm

#: The currencies every fuzzed account is seeded with (§4: monetary and
#: resource-specific currencies behave identically).
CURRENCIES = ("dollars", "pages")

#: Initial mint per account, per currency.
INITIAL = {"dollars": 1_000, "pages": 400}

#: Fault-injection rates when ``--faults`` is on.  Deliberately small
#: against a deep retry budget: each message's chance of exhausting all
#: attempts is ~0.04**10, so drops surface as retries and dedupe hits,
#: never as lost inter-bank messages (which no two-server flow could
#: survive without a commit protocol the paper doesn't include).
FAULT_REQUEST_DROP = 0.04
FAULT_RESPONSE_DROP = 0.03
FAULT_RETRY_ATTEMPTS = 10

#: A violated campaign dumps at most this many episode traces.
FORENSIC_DUMP_LIMIT = 3


@dataclass
class Actor:
    """One user with one account at one bank."""

    name: str
    bank: int
    account: str
    client: AccountingClient


@dataclass
class FuzzReport:
    """Outcome of one campaign; ``ok`` is the CI verdict."""

    seed: int
    episodes: int
    banks: int
    faults: bool
    op_counts: Dict[str, int] = field(default_factory=dict)
    accepted: int = 0
    rejected: int = 0
    violations: List[str] = field(default_factory=list)
    postings_applied: int = 0
    postings_rolled_back: int = 0
    postings_deduped: int = 0
    journal_entries: int = 0
    #: Mid-campaign crash-restarts performed and WAL records replayed
    #: rebuilding the crashed banks.
    crash_restarts: int = 0
    wal_replayed: int = 0
    #: Pre-rendered causal waterfalls of the episodes that broke an
    #: invariant (forensic auto-dump; at most FORENSIC_DUMP_LIMIT).
    forensics: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        """JSON-friendly snapshot (for ``--json`` and the bench script)."""
        return {
            "seed": self.seed,
            "episodes": self.episodes,
            "banks": self.banks,
            "faults": self.faults,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "op_counts": dict(sorted(self.op_counts.items())),
            "postings_applied": self.postings_applied,
            "postings_rolled_back": self.postings_rolled_back,
            "postings_deduped": self.postings_deduped,
            "journal_entries": self.journal_entries,
            "crash_restarts": self.crash_restarts,
            "wal_replayed": self.wal_replayed,
            "conservation": "ok" if self.ok else "VIOLATED",
            "violations": list(self.violations),
        }


def non_settlement_totals(
    servers: List[AccountingServer],
) -> Dict[str, int]:
    """Available + held funds over every non-settlement account.

    Settlement accounts are excluded because they are local mirrors of
    claims whose matching entry lives on a *peer* server; the cashier
    account is included — funds backing outstanding cashier's checks are
    still funds.
    """
    totals: Dict[str, int] = {}
    for server in servers:
        for name, account in server.accounts.items():
            if name.startswith(SETTLEMENT_PREFIX):
                continue
            for currency, amount in account.balances.items():
                totals[currency] = totals.get(currency, 0) + amount
            for hold in account.holds.values():
                totals[hold.currency] = (
                    totals.get(hold.currency, 0) + hold.amount
                )
    return {c: v for c, v in totals.items() if v}


class _Fuzzer:
    """One campaign's mutable state."""

    def __init__(
        self,
        seed: int,
        banks: int,
        faults: bool,
        crash_restarts: int = 0,
        data_dir: Optional[str] = None,
    ) -> None:
        self.rng = random.Random(seed)
        self.faults = faults
        self.crash_restarts = crash_restarts
        self.telemetry = Telemetry()
        self.realm = Realm(
            seed=b"ledger-fuzz:%d" % seed,
            telemetry=self.telemetry,
            resilience=(
                RetryPolicy(max_attempts=FAULT_RETRY_ATTEMPTS)
                if faults
                else None
            ),
        )
        #: Banks write a WAL only when the campaign crash-restarts them;
        #: a restart recovers from the dead bank's own store.
        self.banks: List[AccountingServer] = [
            self.realm.accounting_server(
                f"bank{i}",
                durability=(
                    DurabilityStore(
                        os.path.join(data_dir, f"bank{i}"),
                        telemetry=self.telemetry,
                        server=f"bank{i}",
                    )
                    if crash_restarts > 0
                    else None
                ),
            )
            for i in range(banks)
        ]
        if banks >= 3:
            # Route bank0 -> bank2 traffic through bank1, so deposits at
            # bank0 of checks drawn on bank2 exercise the multi-hop
            # ``collect-check`` cascade (Fig. 5's "subsequent accounting
            # servers repeat the process").
            self.banks[0].routes[self.banks[2].principal] = self.banks[
                1
            ].principal
        self.actors: List[Actor] = []
        self.expected: Dict[str, int] = {}
        for i in range(banks):
            for suffix in ("a", "b"):
                user = self.realm.user(f"user{i}{suffix}")
                client = user.accounting_client(self.banks[i].principal)
                account = f"acct-user{i}{suffix}"
                client.open_account(account)
                for currency, amount in INITIAL.items():
                    self.banks[i].mint(account, currency, amount)
                    self.expected[currency] = (
                        self.expected.get(currency, 0) + amount
                    )
                self.actors.append(
                    Actor(
                        name=user.principal.name,
                        bank=i,
                        account=account,
                        client=client,
                    )
                )
        if faults:
            self.realm.network.set_drop_probability(
                FAULT_REQUEST_DROP, leg="request"
            )
            self.realm.network.set_drop_probability(
                FAULT_RESPONSE_DROP, leg="response"
            )

    # ------------------------------------------------------------------
    # Crash-restart
    # ------------------------------------------------------------------

    def _crash_restart(
        self, idx: int, episode: int, report: FuzzReport
    ) -> None:
        """Kill ``bank{idx}`` and rebuild it from its durability store.

        Process state dies; WAL and snapshot survive.  The recovered
        bank's books are then subject to the same conservation and audit
        invariants as everyone else's, every remaining episode.
        """
        new = self.realm.crash_restart(self.banks[idx], episode=episode)
        self.banks[idx] = new
        report.crash_restarts += 1
        recovery = new.recovery
        report.wal_replayed += recovery.total_replayed
        for problem in recovery.problems:
            report.violations.append(
                f"episode {episode}: bank{idx} recovery: {problem}"
            )

    # ------------------------------------------------------------------
    # Episode building blocks
    # ------------------------------------------------------------------

    def _pair(self) -> Tuple[Actor, Actor]:
        payor, payee = self.rng.sample(self.actors, 2)
        return payor, payee

    def _amount(self) -> int:
        # Mostly affordable, occasionally an overdraft attempt.
        if self.rng.random() < 0.15:
            return self.rng.randint(5_000, 50_000)
        return self.rng.randint(1, 120)

    def _currency(self) -> str:
        return self.rng.choice(CURRENCIES)

    def ep_check(self) -> None:
        """Draw a check, deposit it — same-bank or cross-bank (Fig. 5)."""
        payor, payee = self._pair()
        currency, amount = self._currency(), self._amount()
        check = payor.client.write_check(
            payor.account, payee.client.principal, currency, amount
        )
        deposit = amount
        if amount > 1 and self.rng.random() < 0.25:
            # "the payee transfers up to that limit" — partial deposit.
            deposit = self.rng.randint(1, amount)
        payee.client.deposit_check(check, payee.account, amount=deposit)

    def ep_replay(self) -> None:
        """Deposit the same check twice; the replay must bounce."""
        payor, payee = self._pair()
        currency = self._currency()
        amount = self.rng.randint(1, 60)
        check = payor.client.write_check(
            payor.account, payee.client.principal, currency, amount
        )
        payee.client.deposit_check(check, payee.account)
        try:
            payee.client.deposit_check(check, payee.account)
        except ReproError:
            return
        raise AssertionError("duplicate deposit of one check was accepted")

    def ep_certified(self) -> None:
        """Certify a check; then clear it, cancel it, or leave the hold."""
        payor, payee = self._pair()
        currency = self._currency()
        amount = self.rng.randint(1, 100)
        fate = self.rng.random()
        lifetime = 60.0 if fate < 0.25 else 3600.0
        check = payor.client.write_check(
            payor.account,
            payee.client.principal,
            currency,
            amount,
            lifetime=lifetime,
        )
        payor.client.certify_check(
            check, self.banks[payee.bank].principal
        )
        if fate < 0.25:
            # Let the certification lapse, then reclaim the hold.
            self.realm.clock.advance(lifetime + 1.0)
            payor.client.cancel_certified_check(payor.account, check.number)
        elif fate < 0.85:
            deposit = amount
            if amount > 1 and self.rng.random() < 0.4:
                deposit = self.rng.randint(1, amount)
            payee.client.deposit_check(check, payee.account, amount=deposit)
        # else: hold stays outstanding — conservation counts held funds.

    def ep_cashiers(self) -> None:
        """Buy a cashier's check; the payee deposits it."""
        payor, payee = self._pair()
        currency = self._currency()
        amount = self.rng.randint(1, 100)
        check = payor.client.purchase_cashiers_check(
            payor.account, payee.client.principal, currency, amount
        )
        payee.client.deposit_check(check, payee.account)

    def ep_transfer(self) -> None:
        """Intra-bank transfer (the quota allocate/release path)."""
        source = self.rng.choice(self.actors)
        peers = [
            a
            for a in self.actors
            if a.bank == source.bank and a is not source
        ]
        destination = self.rng.choice(peers)
        source.client.transfer(
            source.account,
            destination.account,
            self._currency(),
            self._amount(),
        )

    def ep_malformed(self) -> None:
        """Feed one operation arguments it must reject pre-mutation."""
        actor = self.rng.choice(self.actors)
        peer = self.rng.choice(self.actors)
        kind = self.rng.randrange(6)
        if kind == 0:
            actor.client.transfer(
                actor.account,
                actor.account,
                self._currency(),
                self.rng.choice([0, -1, -50]),
            )
        elif kind == 1:
            actor.client.transfer(
                actor.account, "no-such-account", self._currency(), 10
            )
        elif kind == 2:
            actor.client.open_account(
                self.rng.choice(
                    [
                        CASHIER_ACCOUNT,
                        f"{SETTLEMENT_PREFIX}bank0",
                        f"{SETTLEMENT_PREFIX}intruder",
                    ]
                )
            )
        elif kind == 3:
            # Certification hold dated absurdly far in the future.  The
            # client helper can't produce this (``draw_check`` clamps the
            # check to the ticket lifetime), so forge the raw request the
            # way a hostile client would.
            from repro.services.checks import account_target

            check = actor.client.write_check(
                actor.account, peer.client.principal, self._currency(), 10
            )
            actor.client.service.request(
                "certify-check",
                target=account_target(check.payor_account),
                args={
                    "account": check.payor_account.account,
                    "check_number": check.number,
                    "payee": check.payee.to_wire(),
                    "currency": check.currency,
                    "amount": check.amount,
                    "end_server": self.banks[peer.bank].principal.to_wire(),
                    "expires_at": self.realm.clock.now() + 10.0**9,
                },
            )
        elif kind == 4:
            actor.client.purchase_cashiers_check(
                actor.account,
                peer.client.principal,
                self._currency(),
                10,
                lifetime=10.0**9,
            )
        else:
            # Negative-amount certification (the pre-fix hold-deletion bug).
            check = actor.client.write_check(
                actor.account,
                peer.client.principal,
                self._currency(),
                -25,
            )
            actor.client.certify_check(
                check, self.banks[peer.bank].principal
            )
        raise AssertionError("malformed operation was accepted")

    # ------------------------------------------------------------------
    # The campaign loop
    # ------------------------------------------------------------------

    OPS: Tuple[Tuple[str, float], ...] = (
        ("check", 0.34),
        ("certified", 0.18),
        ("cashiers", 0.12),
        ("transfer", 0.14),
        ("replay", 0.07),
        ("malformed", 0.15),
    )

    def _pick_op(self) -> str:
        roll = self.rng.random()
        acc = 0.0
        for name, weight in self.OPS:
            acc += weight
            if roll < acc:
                return name
        return self.OPS[-1][0]

    def _check_invariants(self, episode: int, op: str, out: FuzzReport) -> None:
        totals = non_settlement_totals(self.banks)
        expected = {c: v for c, v in self.expected.items() if v}
        if totals != expected:
            out.violations.append(
                f"episode {episode} ({op}): conservation broken — "
                f"non-settlement totals {totals} != minted {expected}"
            )
        for server in self.banks:
            for problem in server.ledger.audit_discrepancies():
                out.violations.append(
                    f"episode {episode} ({op}): {server.principal.name} "
                    f"audit: {problem}"
                )
            if server.ledger.in_transaction():
                out.violations.append(
                    f"episode {episode} ({op}): {server.principal.name} "
                    f"left a ledger transaction open"
                )

    def run(
        self,
        episodes: int,
        report: FuzzReport,
        progress: Optional[Callable[[int, FuzzReport], None]] = None,
    ) -> FuzzReport:
        handlers = {
            "check": self.ep_check,
            "certified": self.ep_certified,
            "cashiers": self.ep_cashiers,
            "transfer": self.ep_transfer,
            "replay": self.ep_replay,
            "malformed": self.ep_malformed,
        }
        # Evenly spaced crash-restarts, banks round-robin — deterministic
        # in (episodes, crash_restarts, banks), independent of the op rng.
        restart_at: Dict[int, List[int]] = {}
        if self.crash_restarts > 0:
            interval = max(1, episodes // (self.crash_restarts + 1))
            for k in range(self.crash_restarts):
                episode = min(episodes - 1, interval * (k + 1))
                restart_at.setdefault(episode, []).append(
                    k % len(self.banks)
                )
        for episode in range(episodes):
            for idx in restart_at.get(episode, ()):
                self._crash_restart(idx, episode, report)
            op = self._pick_op()
            report.op_counts[op] = report.op_counts.get(op, 0) + 1
            with self.telemetry.run(f"ep-{episode}-{op}") as run_span:
                trace_id = run_span.trace_id or ""
                try:
                    handlers[op]()
                except ReproError:
                    # An operation refusing is fine — funds just must not
                    # move (the invariant check below is what catches a
                    # half-applied refusal).  AssertionError is *not*
                    # caught: an accepted malformed op or replay is a real
                    # failure.
                    report.rejected += 1
                else:
                    report.accepted += 1
            before = len(report.violations)
            self._check_invariants(episode, op, report)
            if len(report.violations) > before:
                # Forensics: name the offending episode's trace in each
                # violation and dump its full causal history.
                for i in range(before, len(report.violations)):
                    report.violations[i] += f" [trace {trace_id}]"
                if trace_id and len(report.forensics) < FORENSIC_DUMP_LIMIT:
                    from repro.obs.export import render_trace_waterfall

                    spans = self.telemetry.store.by_trace(trace_id)
                    if spans:
                        report.forensics.append(
                            render_trace_waterfall(spans)
                        )
            else:
                # Clean episode: drop its spans so a long campaign's
                # memory stays bounded (metrics keep accumulating).
                self.telemetry.tracer.clear()
                self.telemetry.store.clear()
            # Spread timestamps so expiry windows and dedupe eviction see
            # motion; drawn from the seeded rng for reproducibility.
            self.realm.clock.advance(self.rng.uniform(0.1, 2.0))
            if progress is not None:
                progress(episode, report)
        for server in self.banks:
            report.postings_applied += server.ledger.postings_applied
            report.postings_rolled_back += server.ledger.postings_rolled_back
            report.postings_deduped += server.ledger.postings_deduped
            report.journal_entries += len(server.ledger.journal)
        return report


def run_fuzz(
    seed: int,
    episodes: int,
    banks: int = 2,
    faults: bool = False,
    crash_restarts: int = 0,
    data_dir: Optional[str] = None,
    progress: Optional[Callable[[int, FuzzReport], None]] = None,
) -> FuzzReport:
    """Run one seeded campaign; see the module docstring.

    Deterministic: the same ``(seed, episodes, banks, faults,
    crash_restarts)`` always performs the same operations and returns the
    same report.  ``crash_restarts`` kills banks mid-campaign (evenly
    spaced, round-robin) and rebuilds each from its WAL+snapshot store
    under ``data_dir`` (a temp dir, removed afterwards, when None) — the
    invariants then hold the *recovered* books to the same standard.
    """
    if banks < 2:
        raise ValueError("the fuzzer needs at least two banks")
    if episodes < 1:
        raise ValueError("episodes must be positive")
    if crash_restarts < 0:
        raise ValueError("crash_restarts cannot be negative")
    scratch: Optional[str] = None
    if crash_restarts > 0 and data_dir is None:
        data_dir = scratch = tempfile.mkdtemp(prefix="repro-fuzz-wal-")
    try:
        fuzzer = _Fuzzer(
            seed, banks, faults, crash_restarts=crash_restarts,
            data_dir=data_dir,
        )
        report = FuzzReport(
            seed=seed, episodes=episodes, banks=banks, faults=faults
        )
        return fuzzer.run(episodes, report, progress=progress)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
