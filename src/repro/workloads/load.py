"""Concurrent load generation against a realm.

This is the measurement half of the async runtime
(:class:`~repro.net.aio.AioNetwork`): build a realm, populate it with
*N* principals, then drive every principal's request stream concurrently
and report throughput plus latency percentiles.  It exists to answer the
question the paper's protocols were designed around but the single-thread
reproduction could never ask — what do cascaded authorization and
accounting cost under tens of thousands of in-flight principals?

The CLI lives at ``python -m repro load`` (see ``docs/scaling.md``):

    python -m repro load pk-verify --principals 1000 --concurrency 64
    python -m repro load echo --principals 10000 --ops 3 --mode aio
    python -m repro load fig5 --principals 200 --usage

Design points:

* **Scenarios** adapt the figure workloads to many principals: every
  principal gets its *own* credentials, clients, and (for fig5) its own
  accounts, so concurrent ops never share client-side mutable state —
  thread safety by partitioning, the same property real deployments get
  from separate user agents.
* **Setup is sequential and undilated**: principals are provisioned
  inline before the clock starts, so reported numbers measure the
  request path, not Kerberos bootstrapping.
* **Measurement uses the existing machinery**: per-op latencies stream
  into an :class:`~repro.obs.usage.QuantileDigest` (the same log-bucket
  digest the usage meter reports percentiles from), wire totals come
  from ``network.metrics``, optional ``--usage`` metering reconciles the
  :class:`~repro.obs.usage.UsageMeter` against those counters exactly as
  ``python -m repro usage`` does, and every scenario ends with an
  invariant check (audit-record counts; for fig5, ledger conservation
  across both banks) printed as a greppable ``conservation:`` line.
* **Fairness**: sync and aio modes run the same scenario, the same
  per-principal op streams, and the same latency model; the aio mode's
  advantage must come from overlapping waits and cross-request batch
  prefetching, not from doing less work.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.acl import AclEntry, SinglePrincipal
from repro.core.restrictions import (
    Authorized,
    AuthorizedEntry,
    Grantee,
    IssuedFor,
)
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire
from repro.errors import NetworkError, ReproError, ResilienceError
from repro.kerberos.proxy_support import endorse, grant_via_credentials
from repro.ledger.ledger import Problem
from repro.net.aio import AioNetwork
from repro.net.message import Message
from repro.net.network import LatencyModel
from repro.net.service import Service
from repro.obs.telemetry import NO_TELEMETRY, Telemetry
from repro.obs.usage import QuantileDigest
from repro.services.accounting import (
    CASHIER_ACCOUNT,
    SETTLEMENT_PREFIX,
    AccountingClient,
    non_settlement_totals,
)
from repro.services.checks import account_target
from repro.testbed import Realm

#: Documents provisioned on file-serving scenarios.
_DOCS = 5


@dataclass(frozen=True)
class LoadConfig:
    """One load run, fully specified (and therefore reproducible setup).

    Attributes:
        scenario: scenario name from :data:`SCENARIOS` — ``echo``,
            ``pk-verify``, or a figure workload (``fig1``, ``fig3``,
            ``fig4``, ``fig5``).
        principals: how many independent principals to provision; each
            runs its own request stream with its own credentials.
        ops: requests per principal (the run ends when every stream is
            exhausted, or at ``duration`` if that comes first).
        duration: optional wall-clock cap in seconds; ``0`` means run
            until the op streams are exhausted.
        concurrency: client-side parallelism — the number of requests
            that may be blocked on the network at once (thread-pool
            width in aio mode; sync mode is always 1).
        mode: ``"aio"`` (queued asyncio delivery) or ``"sync"`` (the
            seeded single-thread parity mode).
        seed: realm seed; setup (keys, grants, accounts) is a
            deterministic function of it.
        time_dilation: scale sampled per-hop latencies into real waits
            (applied only after setup); ``0`` measures pure protocol
            cost, ``1.0`` measures latency hiding under the model's
            simulated wire.
        base_latency / jitter: the per-hop latency model.
        max_batch: aio inbox drain window (cross-request batch size cap).
        request_timeout: client-side wait cap per request in aio mode.
        meter_usage: attach a usage-metering telemetry and report its
            reconciliation against the network counters.
        prefetch: install the servers' cross-request signature
            prefetchers (aio mode only).
    """

    scenario: str = "echo"
    principals: int = 100
    ops: int = 3
    duration: float = 0.0
    concurrency: int = 64
    mode: str = "aio"
    seed: int = 7
    time_dilation: float = 0.0
    base_latency: float = 0.001
    jitter: float = 0.0005
    max_batch: int = 64
    request_timeout: Optional[float] = 30.0
    meter_usage: bool = False
    prefetch: bool = True


@dataclass
class LoadReport:
    """What one load run measured, renderable for humans and CI greps."""

    scenario: str
    mode: str
    principals: int
    concurrency: int
    wall_seconds: float
    ops_ok: int
    ops_failed: int
    percentiles_ms: Dict[str, float]
    peak_in_flight: int
    messages: int
    bytes: int
    problems: List[str] = field(default_factory=list)
    #: Runtime counters (aio mode): batches, prefetched checks, ...
    runtime: Dict[str, int] = field(default_factory=dict)
    #: ``metered m/b vs net m/b -> ok|MISMATCH|EMPTY`` when usage
    #: metering ran.
    reconciliation: Optional[str] = None
    #: Scenario extras (e.g. fig5 balance totals).
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Completed requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.ops_ok / self.wall_seconds

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "principals": self.principals,
            "concurrency": self.concurrency,
            "wall_seconds": round(self.wall_seconds, 6),
            "ops_ok": self.ops_ok,
            "ops_failed": self.ops_failed,
            "throughput_ops_per_s": round(self.throughput, 3),
            "percentiles_ms": {
                k: round(v, 3) for k, v in self.percentiles_ms.items()
            },
            "peak_in_flight": self.peak_in_flight,
            "messages": self.messages,
            "bytes": self.bytes,
            "runtime": dict(self.runtime),
            "problems": list(self.problems),
            "reconciliation": self.reconciliation,
            "extras": {k: v for k, v in self.extras.items()},
        }

    def render(self) -> str:
        lines = [
            f"load: {self.scenario} mode={self.mode} "
            f"principals={self.principals} concurrency={self.concurrency}",
            f"  throughput ......... {self.throughput:,.1f} ops/s "
            f"({self.ops_ok} ops in {self.wall_seconds:.3f}s, "
            f"{self.ops_failed} failed)",
            f"  latency ............ "
            + "  ".join(
                f"{name} {value:.2f}ms"
                for name, value in self.percentiles_ms.items()
            ),
            f"  in flight .......... peak {self.peak_in_flight} principals",
            f"  wire ............... {self.messages} messages, "
            f"{self.bytes} bytes",
        ]
        if self.runtime:
            parts = ", ".join(
                f"{k}={v}" for k, v in sorted(self.runtime.items())
            )
            lines.append(f"  aio runtime ........ {parts}")
        for key, value in self.extras.items():
            lines.append(f"  {key} ".ljust(21, ".") + f" {value}")
        if self.reconciliation is not None:
            lines.append(f"reconciliation: {self.reconciliation}")
        if self.problems:
            lines.append("conservation: VIOLATED")
            lines.extend(f"  problem: {p}" for p in self.problems)
        else:
            lines.append("conservation: ok")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


class LoadScenario:
    """One figure's deployment and unit of work — written here, once.

    :func:`run_load`, the chaos campaigns (:mod:`repro.resil.chaos`, one
    principal), the aio-parity suite and the end-to-end benchmark
    (``perf/``) all drive these hooks; none keeps a copy of a figure.

    Hooks, all run with the network in inline (undilated, unqueued)
    delivery except :meth:`op`:

    * :meth:`setup` builds shared servers and returns the state dict.
    * :meth:`principal` provisions principal ``i`` (credentials, grants,
      accounts) and returns its private per-principal state.
    * :meth:`op` runs one request for principal ``i``, checks the reply
      and returns the application outcome (what parity runs compare); it
      must touch only that principal's state (plus thread-safe server
      handles), because in aio mode it runs on a client pool thread.  It
      wraps each of the paper's arrows in a :meth:`step` span, which
      ``python -m repro trace`` renders as the figure's numbered message.
    * :meth:`check` returns invariant violations ([] = ok): after the
      run, and in chaos campaigns after every unit.
    * :meth:`prefetchers` names (endpoint, prefetcher) pairs to install
      on the aio network for cross-request signature batching.
    """

    name = "?"
    #: server name -> :class:`~repro.durability.DurabilityStore`; a server
    #: named here is built on its store (crash-restart campaigns assign
    #: a dict of their own to the instance).
    stores: Mapping[str, object] = MappingProxyType({})

    @staticmethod
    def step(realm: Realm, step, label: str):
        """One of the paper's arrows as a ``fig.step`` span inside a run
        (:func:`run_figure`, chaos units), else the shared null context.
        :func:`run_load` opens no run: its aio client threads share the
        tracer's one span stack, where a step would adopt other principals'
        requests and bill them to whoever stepped first."""
        tracer = realm.telemetry.tracer
        parent = tracer.current_span if tracer is not None else None
        if parent is None or parent.run_id is None:
            return NO_TELEMETRY.span("fig.step")
        return tracer.span("fig.step", step=step, label=label)

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        raise NotImplementedError

    def principal(
        self, realm: Realm, config: LoadConfig, state: dict, i: int
    ) -> object:
        raise NotImplementedError

    def op(
        self,
        realm: Realm,
        config: LoadConfig,
        state: dict,
        pstate,
        i: int,
        k: int,
    ) -> dict:
        raise NotImplementedError

    def check(
        self, realm: Realm, config: LoadConfig, state: dict, ops_ok: int
    ) -> List[str]:
        return []

    def prefetchers(self, state: dict) -> List[Tuple[PrincipalId, Callable]]:
        return []

    def extras(self, realm: Realm, state: dict) -> Dict[str, object]:
        return {}


class _EchoService(Service):
    """Minimal request/response endpoint for substrate-only load."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.handled = 0

    def op_echo(self, message: Message) -> dict:
        self.handled += 1
        return {"echo": message.payload.get("n")}


class EchoScenario(LoadScenario):
    """Substrate-only ping/pong: measures the delivery fabric itself.

    No crypto, no tickets — the cheapest possible op, so this is the
    scenario that can hold 10k+ principals in flight and isolates the
    runtime's own overhead and latency hiding.
    """

    name = "echo"

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        echo = _EchoService(
            realm.principal("echo"), realm.network, realm.clock
        )
        return {"echo": echo}

    def principal(self, realm, config, state, i):
        return realm.principal(f"p{i}")

    def op(self, realm, config, state, pstate, i, k):
        reply = realm.network.send(
            pstate, state["echo"].principal, "echo", {"n": k}
        )
        if reply.get("echo") != k:
            raise ReproError(f"echo mismatch for principal {i} op {k}")
        return {"echo": k}

    def check(self, realm, config, state, ops_ok):
        handled = state["echo"].handled
        if handled < ops_ok:
            return [Problem(
                f"echo server handled {handled} < {ops_ok} completed ops",
                "echo", "handled",
            )]
        return []


class _EndServerScenario(LoadScenario):
    """A figure whose every completed op is one audited proxy request to
    the end-server ``state[SERVER]``, on either authentication front-end."""

    SERVER = "server"

    def check(self, realm, config, state, ops_ok):
        audited = len(state[self.SERVER].audit.all())
        if audited < ops_ok:
            return [Problem(
                f"audit recorded {audited} < {ops_ok} completed ops",
                self.SERVER, "audited",
            )]
        return []

    def prefetchers(self, state):
        server = state[self.SERVER]
        return [(server.endpoint, server.signature_prefetcher())]


@wire
@dataclass(frozen=True)
class PathArgs:
    path: str  # pk-verify's ``read`` names its document twice


class PkVerifyScenario(_EndServerScenario):
    """Public-key proxy verification under load (Fig. 6 shape, §6.1).

    Every principal holds a signed restricted proxy from one grantor and
    presents it with a fresh signed envelope and possession proof per
    request — three Schnorr verifications per op, which the async
    runtime's cross-request prefetcher runs ahead of the handlers for
    every request queued in one inbox drain.  Uses the small test group
    so the bottleneck stays the protocol, not 2048-bit modexp on CI
    runners.
    """

    name = "pk-verify"

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        from repro.crypto.schnorr_groups import TEST_GROUP
        from repro.services.pk_endserver import (
            PkClient,
            PkEndServer,
            PublicKeyDirectory,
        )

        rng = realm.rng.fork(b"pk-load")
        directory = PublicKeyDirectory()
        server = PkEndServer(
            realm.principal("pk-gate"),
            realm.network,
            realm.clock,
            directory,
            group=TEST_GROUP,
            rng=rng,
            telemetry=realm.telemetry,
        )
        server.register_operation(
            "read", lambda request: {"data": b"ok"}, PathArgs
        )
        grantor = PkClient(
            realm.principal("grantor"),
            realm.network,
            realm.clock,
            directory,
            group=TEST_GROUP,
            rng=rng,
        )
        server.acl.add(AclEntry(subject=SinglePrincipal(grantor.principal)))
        return {
            "server": server,
            "grantor": grantor,
            "directory": directory,
            "rng": rng,
            "group": TEST_GROUP,
        }

    def principal(self, realm, config, state, i):
        from repro.core.proxy import grant_public
        from repro.services.pk_endserver import PkClient

        client = PkClient(
            realm.principal(f"p{i}"),
            realm.network,
            realm.clock,
            state["directory"],
            group=state["group"],
            rng=state["rng"],
        )
        grantor = state["grantor"]
        now = realm.clock.now()
        proxy = grant_public(
            grantor.principal,
            grantor.signer,
            (
                Authorized(entries=(AuthorizedEntry("doc", ("read",)),)),
                IssuedFor(servers=(state["server"].principal,)),
            ),
            now,
            now + 86_400.0,
            state["rng"],
            group=state["group"],
        )
        return (client, proxy)

    def op(self, realm, config, state, pstate, i, k):
        client, proxy = pstate
        with self.step(
            realm,
            2,
            "present [read doc, Kproxy-pub]_Kgrantor with a signed "
            "possession proof; S verifies against the directory",
        ):
            reply = client.request(
                state["server"].principal,
                "read",
                target="doc",
                args=PathArgs("doc").to_wire(),
                proxy=proxy,
                anonymous=False,
            )
        if reply.get("data") != b"ok":
            raise ReproError(f"pk read failed for principal {i} op {k}")
        return {"data": reply["data"]}


class _FileScenario(_EndServerScenario):
    """Shared scaffolding for the Kerberos file-server figures."""

    SERVER = "fs"

    def _file_server(self, realm: Realm):
        fs = realm.file_server(
            "files", durability=self.stores.get("files")
        )
        for k in range(_DOCS):
            fs.put(f"doc{k}.txt", b"contents of doc %d" % k)
        return fs


class Fig1Scenario(_FileScenario):
    """Bearer capabilities at scale (Fig. 1, §2).

    One owner grants every principal its own restricted capability;
    principals present them anonymously.  Measures offline verification
    plus accept-once bookkeeping under concurrency.
    """

    name = "fig1"

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        alice = realm.user("alice")
        fs = self._file_server(realm)
        fs.grant_owner(alice.principal)
        return {"alice": alice, "fs": fs}

    def principal(self, realm, config, state, i):
        alice, fs = state["alice"], state["fs"]
        user = realm.user(f"p{i}")
        capability = grant_via_credentials(
            alice.kerberos.get_ticket(fs.principal),
            (
                Authorized(
                    entries=tuple(
                        AuthorizedEntry(f"doc{k}.txt", ("read",))
                        for k in range(_DOCS)
                    )
                ),
            ),
            realm.clock.now(),
            rng=alice.kerberos.rng,
        )
        return (user.client_for(fs.principal), capability)

    def op(self, realm, config, state, pstate, i, k):
        client, capability = pstate
        with self.step(
            realm,
            2,
            "present [read doc*, Kproxy]_alice as a bearer capability; "
            "S verifies offline",
        ):
            reply = client.request(
                "read",
                f"doc{k % _DOCS}.txt",
                proxy=capability,
                anonymous=True,
            )
        if "data" not in reply:
            raise ReproError(f"fig1 read failed for principal {i} op {k}")
        return {"data": reply["data"]}


class Fig3Scenario(_FileScenario):
    """Authorization-server grants at scale (Fig. 3, §3.2).

    Every principal asks the authorization server for a fresh grant and
    presents it — two RPCs per op, with the authorization server itself
    a contended shared service.
    """

    name = "fig3"

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        fs = self._file_server(realm)
        authz = realm.authorization_server("authz")
        # The same entry ``fs.acl.add`` would make, but logged to the
        # file server's store, so a crash-restart keeps it.
        fs.grant_owner(authz.principal)
        return {"fs": fs, "authz": authz}

    def principal(self, realm, config, state, i):
        fs, authz = state["fs"], state["authz"]
        user = realm.user(f"p{i}")
        authz.database_for(fs.principal).add(
            AclEntry(
                subject=SinglePrincipal(user.principal),
                operations=("read",),
            )
        )
        azc = self._authorization_client(realm, user, authz.principal)
        client = user.client_for(fs.principal)
        azc.service.establish_session()
        client.establish_session()
        return (azc, client)

    def _authorization_client(self, realm, user, authz):
        return user.authorization_client(authz)

    def op(self, realm, config, state, pstate, i, k):
        azc, client = pstate
        with self.step(
            realm,
            "1+2",
            "authenticated request -> [op X only]_R, {Kproxy}Ksession",
        ):
            proxy = azc.authorize(state["fs"].principal, ("read",))
        with self.step(
            realm, 3, "present proxy to S, authenticate with Kproxy"
        ):
            reply = client.request(
                "read", f"doc{k % _DOCS}.txt", proxy=proxy
            )
        if "data" not in reply:
            raise ReproError(f"fig3 read failed for principal {i} op {k}")
        return {"data": reply["data"]}


class Fig4Scenario(_FileScenario):
    """Delegate cascades at scale (Fig. 4, §3.4).

    Each principal is the tail of its own two-link cascade (owner →
    intermediary_i → principal_i) and presents the full chain per
    request — the verification-heaviest Kerberos scenario.
    """

    name = "fig4"

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        alice = realm.user("alice")
        fs = self._file_server(realm)
        fs.grant_owner(alice.principal)
        return {"alice": alice, "fs": fs}

    def principal(self, realm, config, state, i):
        alice, fs = state["alice"], state["fs"]
        carol = realm.user(f"carol{i}")
        dave = realm.user(f"dave{i}")
        now = realm.clock.now()
        to_carol = grant_via_credentials(
            alice.kerberos.get_ticket(fs.principal),
            (Grantee(principals=(carol.principal,)),),
            now,
            rng=alice.kerberos.rng,
        )
        chain = endorse(
            to_carol,
            carol.kerberos.get_ticket(fs.principal),
            dave.principal,
            (),
            now,
            now + 86_400.0,
            rng=carol.kerberos.rng,
        )
        client = dave.client_for(fs.principal)
        client.establish_session()
        return (client, chain)

    def op(self, realm, config, state, pstate, i, k):
        client, chain = pstate
        with self.step(
            realm,
            3,
            "present chain [carol]_alice, [dave]_carol to S; "
            "S verifies every link",
        ):
            reply = client.request(
                "read", f"doc{k % _DOCS}.txt", proxy=chain
            )
        if "data" not in reply:
            raise ReproError(f"fig4 read failed for principal {i} op {k}")
        return {"data": reply["data"]}


class Fig5Scenario(LoadScenario):
    """Cross-bank check clearing at scale (Fig. 5, §4).

    Every principal holds a funded account at bank A and an empty account
    at bank B, and each op writes a check on A and deposits it at B — the
    inter-bank E2 hop rides the same fabric as a nested send.  The check
    is global: per-currency conservation over every bank's
    non-settlement accounts, every ledger's audit parity, and no ledger
    transaction left open.
    """

    name = "fig5"

    #: What provisioning mints per principal (into its payor account):
    #: :meth:`check`'s conservation target.  A constant, not a sum over
    #: the books' MINT postings, so the check cannot restate what it
    #: checks.
    MINT: Mapping[str, int] = MappingProxyType({"dollars": 10_000})
    #: state key -> bank name.
    BANKS: Tuple[Tuple[str, str], ...] = (
        ("bank_a", "bank-a"),
        ("bank_b", "bank-b"),
    )

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        state = {
            key: realm.accounting_server(
                name, durability=self.stores.get(name)
            )
            for key, name in self.BANKS
        }
        # Sessions are part of provisioning, not of the measured op: bank
        # B clears at bank A over one session it opens here, not inside
        # whichever depositor's op would reach it first.
        state["bank_b"].peer(state["bank_a"].principal)
        return state

    def principal(self, realm, config, state, i):
        bank_a, bank_b = state["bank_a"], state["bank_b"]
        user = realm.user(f"p{i}")
        bank_a.create_account(
            f"payor-{i}", user.principal, dict(self.MINT)
        )
        bank_b.create_account(f"payee-{i}", user.principal)
        payor_client = user.accounting_client(bank_a.principal)
        payee_client = user.accounting_client(bank_b.principal)
        # Sessions are part of provisioning, not of the measured op.
        payor_client.service.establish_session()
        payee_client.service.establish_session()
        return (user, payor_client, payee_client, i)

    def op(self, realm, config, state, pstate, i, k):
        user, payor_client, payee_client, idx = pstate
        amount = 1 + (k % 7)
        with self.step(realm, 1, "check: [payee, $amount, #N]_payor"):
            check = payor_client.write_check(
                f"payor-{idx}", user.principal, "dollars", amount
            )
        with self.step(
            realm,
            "2+3",
            "E1 deposit at payee's server; E2 forwarded for clearing",
        ):
            result = payee_client.deposit_check(check, f"payee-{idx}")
        paid = result["paid"]
        if paid != amount:
            raise ReproError(f"fig5 deposit paid {paid} != {amount}")
        return {"amount": amount, "paid": paid}

    def _banks(self, state: dict) -> list:
        return [state[key] for key, _ in self.BANKS]

    def check(self, realm, config, state, ops_ok):
        banks = self._banks(state)
        problems: List[Problem] = []
        expected = {c: config.principals * v for c, v in self.MINT.items()}
        totals = non_settlement_totals(banks)
        for currency in sorted(set(totals) | set(expected)):
            total, minted = totals.get(currency), expected.get(currency)
            if total != minted:
                problems.append(Problem(
                    f"conservation broken: non-settlement {currency} total "
                    f"{total} != minted {minted}",
                    "non-settlement", "conservation", currency,
                ))
        for bank in banks:
            name = bank.principal.name
            for problem in bank.ledger.audit_discrepancies():
                subject, kind, currency = problem.key
                problems.append(Problem(
                    f"{name} audit: {problem}",
                    f"{name}/{subject}", kind, currency,
                ))
            if bank.ledger.in_transaction():
                problems.append(Problem(
                    f"{name} left a ledger transaction open",
                    name, "open-transaction",
                ))
        return problems

    def prefetchers(self, state):
        return [
            (bank.endpoint, bank.signature_prefetcher())
            for bank in self._banks(state)
        ]

    def extras(self, realm, state):
        return {"balances": non_settlement_totals(self._banks(state))}


class _Actor(NamedTuple):
    """One :class:`Fig5Mix` user: an account at one bank."""

    bank: str  # state key
    account: str
    client: AccountingClient


def _scaled(mint: Mapping[str, int], factor: int) -> Mapping[str, int]:
    return MappingProxyType({c: factor * v for c, v in mint.items()})


#: Network and retry failures leave a request's fate unknown; every
#: other :class:`ReproError` is a server's refusal.
_UNRECOVERABLE = (NetworkError, ResilienceError)


class Fig5Mix(Fig5Scenario):
    """§4's whole accounting surface as Fig. 5 op variants.

    Three banks: ``bank-a`` clears checks drawn on ``bank-c`` through
    ``bank-b`` (Fig. 5's "subsequent accounting servers repeat the
    process"), and the direct pairs clear as in ``fig5``.  Each principal
    owns two users per bank with one funded account each.  ``op(k)``
    draws one variant by :data:`VARIANTS` weight from an rng seeded with
    (run seed, principal, k), so both arms of a campaign draw alike
    whatever the network did:

    * ``check`` — same-bank, cross-bank and routed deposits, partial
      deposits and overdraft attempts;
    * ``certified`` — certify, then clear, clear in part, let lapse and
      cancel, or leave held;
    * ``cashiers`` — buy a cashier's check, the payee deposits it;
    * ``transfer`` — between a bank's two accounts (quota allocation);
    * ``replay`` — deposit one check twice;
    * ``malformed`` — one of seven requests a server must refuse.

    A refusal is an outcome, ``{"variant": v, "refused": error type}``,
    which parity compares across arms; a network or retry failure fails
    the unit.  An accepted malformed request or replayed check raises
    :class:`AssertionError`, which no campaign catches.

    :meth:`check` is ``fig5``'s, over three banks.  Not in
    :data:`SCENARIOS`: the lapse advances the simulated clock, and
    ``load`` runs on real time; ``python -m repro chaos fig5-mix`` runs it.
    """

    name = "fig5-mix"

    BANKS = Fig5Scenario.BANKS + (("bank_c", "bank-c"),)
    USERS_PER_BANK = 2
    #: Minted into each user's account.
    ACCOUNT_MINT: Mapping[str, int] = MappingProxyType(
        {"dollars": 1_000, "pages": 400}
    )
    MINT = _scaled(ACCOUNT_MINT, len(BANKS) * USERS_PER_BANK)
    #: Variant -> weight.
    VARIANTS: Mapping[str, float] = MappingProxyType(
        {
            "check": 0.34,
            "certified": 0.18,
            "cashiers": 0.12,
            "transfer": 0.14,
            "replay": 0.07,
            "malformed": 0.15,
        }
    )

    def setup(self, realm: Realm, config: LoadConfig) -> dict:
        state = super().setup(realm, config)
        # bank-a reaches bank-c through bank-b: the routed collect-check hop.
        state["bank_a"].routes[state["bank_c"].principal] = state[
            "bank_b"
        ].principal
        return state

    def principal(self, realm, config, state, i):
        cast = []
        for key, _ in self.BANKS:
            bank = state[key]
            for n in range(1, self.USERS_PER_BANK + 1):
                user = realm.user(f"p{i}-{key[-1]}{n}")
                account = f"acct-{user.principal.name}"
                bank.create_account(account, user.principal)
                for currency, amount in self.ACCOUNT_MINT.items():
                    bank.mint(account, currency, amount)
                client = user.accounting_client(bank.principal)
                client.service.establish_session()
                cast.append(_Actor(key, account, client))
        return cast

    def op(self, realm, config, state, pstate, i, k):
        rng = random.Random(f"fig5-mix:{config.seed}:{i}:{k}")
        (variant,) = rng.choices(
            list(self.VARIANTS), weights=list(self.VARIANTS.values())
        )
        try:
            outcome = getattr(self, f"_{variant}")(realm, state, pstate, rng)
        except _UNRECOVERABLE:
            raise
        except ReproError as exc:
            return {"variant": variant, "refused": type(exc).__name__}
        return {"variant": variant, **outcome}

    # -- variants: each returns its outcome or raises -----------------------

    @staticmethod
    def _amount(rng: random.Random) -> int:
        """Mostly affordable, occasionally an overdraft attempt."""
        if rng.random() < 0.15:
            return rng.randint(5_000, 50_000)
        return rng.randint(1, 120)

    def _currency(self, rng: random.Random) -> str:
        return rng.choice(sorted(self.ACCOUNT_MINT))

    @staticmethod
    def _partial(rng: random.Random, amount: int, odds: float) -> int:
        """Sometimes less than the face value ("the payee transfers up
        to that limit")."""
        if amount > 1 and rng.random() < odds:
            return rng.randint(1, amount)
        return amount

    def _check(self, realm, state, cast, rng):
        payor, payee = rng.sample(cast, 2)
        currency, amount = self._currency(rng), self._amount(rng)
        check = payor.client.write_check(
            payor.account, payee.client.principal, currency, amount
        )
        deposit = self._partial(rng, amount, 0.25)
        reply = payee.client.deposit_check(
            check, payee.account, amount=deposit
        )
        return {
            "route": f"{payor.bank}->{payee.bank}",
            "paid": reply["paid"],
        }

    def _certified(self, realm, state, cast, rng):
        payor, payee = rng.sample(cast, 2)
        currency, amount = self._currency(rng), rng.randint(1, 100)
        fate = rng.random()
        lifetime = 60.0 if fate < 0.25 else 3600.0
        check = payor.client.write_check(
            payor.account,
            payee.client.principal,
            currency,
            amount,
            lifetime=lifetime,
        )
        payor.client.certify_check(check, state[payee.bank].principal)
        route = f"{payor.bank}->{payee.bank}"
        if fate < 0.25:
            # Let the certification lapse, then reclaim the hold.
            realm.clock.advance(lifetime + 1.0)
            reply = payor.client.cancel_certified_check(
                payor.account, check.number
            )
            return {"route": route, "lapsed": reply["returned"]}
        if fate < 0.85:
            deposit = self._partial(rng, amount, 0.4)
            reply = payee.client.deposit_check(
                check, payee.account, amount=deposit
            )
            return {"route": route, "paid": reply["paid"]}
        # The hold stays outstanding: conservation counts held funds.
        return {"route": route, "held": amount}

    def _cashiers(self, realm, state, cast, rng):
        payor, payee = rng.sample(cast, 2)
        currency, amount = self._currency(rng), rng.randint(1, 100)
        check = payor.client.purchase_cashiers_check(
            payor.account, payee.client.principal, currency, amount
        )
        reply = payee.client.deposit_check(check, payee.account)
        return {
            "route": f"{payor.bank}->{payee.bank}",
            "paid": reply["paid"],
        }

    def _transfer(self, realm, state, cast, rng):
        source = rng.choice(cast)
        (destination,) = [
            a for a in cast if a.bank == source.bank and a is not source
        ]
        amount = self._amount(rng)
        source.client.transfer(
            source.account, destination.account, self._currency(rng), amount
        )
        return {"moved": amount}

    def _replay(self, realm, state, cast, rng):
        payor, payee = rng.sample(cast, 2)
        currency, amount = self._currency(rng), rng.randint(1, 60)
        check = payor.client.write_check(
            payor.account, payee.client.principal, currency, amount
        )
        paid = payee.client.deposit_check(check, payee.account)["paid"]
        try:
            payee.client.deposit_check(check, payee.account)
        except _UNRECOVERABLE:
            raise
        except ReproError as exc:
            return {"paid": paid, "replay": type(exc).__name__}
        raise AssertionError("fig5-mix: a check was deposited twice")

    def _malformed(self, realm, state, cast, rng):
        actor, peer = rng.choice(cast), rng.choice(cast)
        client, currency = actor.client, self._currency(rng)
        kind = rng.randrange(7)
        if kind == 0:
            client.transfer(
                actor.account,
                actor.account,
                currency,
                rng.choice([0, -1, -50]),
            )
        elif kind == 1:
            client.transfer(actor.account, "no-such-account", currency, 10)
        elif kind == 2:
            client.open_account(
                rng.choice(
                    [
                        CASHIER_ACCOUNT,
                        SETTLEMENT_PREFIX + state[peer.bank].principal.name,
                        f"{SETTLEMENT_PREFIX}intruder",
                    ]
                )
            )
        elif kind == 3:
            # A certification hold dated absurdly far ahead.  The client
            # helper cannot produce it (``draw_check`` clamps the check to
            # the ticket lifetime), so forge the request a hostile client
            # would send.
            check = client.write_check(
                actor.account, peer.client.principal, currency, 10
            )
            client.service.request(
                "certify-check",
                target=account_target(check.payor_account),
                args={
                    "account": check.payor_account.account,
                    "check_number": check.number,
                    "payee": check.payee.to_wire(),
                    "currency": check.currency,
                    "amount": check.amount,
                    "end_server": state[peer.bank].principal.to_wire(),
                    "expires_at": realm.clock.now() + 10.0**9,
                },
            )
        elif kind == 4:
            client.purchase_cashiers_check(
                actor.account,
                peer.client.principal,
                currency,
                10,
                lifetime=10.0**9,
            )
        elif kind == 5:
            # A negative-amount certification (once deleted the hold).
            check = client.write_check(
                actor.account, peer.client.principal, currency, -25
            )
            client.certify_check(check, state[peer.bank].principal)
        else:
            # A transfer that would go through but for an argument off
            # its declared type, or a key none declares: once coerced
            # (2.9 moved 2, "5" moved 5) or ignored.
            (mate,) = [
                a for a in cast if a.bank == actor.bank and a is not actor
            ]
            args = {"to": mate.account, "currency": currency, "amount": 5}
            bad = rng.choice([2.9, True, "5", None])
            if bad is None:
                args["memo"] = "x"
            else:
                args["amount"] = bad
            client.service.request(
                "transfer",
                target=account_target(client.account_id(actor.account)),
                args=args,
            )
        raise AssertionError("fig5-mix: a malformed request was accepted")


SCENARIOS: Dict[str, type] = {
    EchoScenario.name: EchoScenario,
    PkVerifyScenario.name: PkVerifyScenario,
    Fig1Scenario.name: Fig1Scenario,
    Fig3Scenario.name: Fig3Scenario,
    Fig4Scenario.name: Fig4Scenario,
    Fig5Scenario.name: Fig5Scenario,
}


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _Meter:
    """Thread-safe op accounting shared by every principal stream."""

    def __init__(self) -> None:
        self.digest = QuantileDigest()
        self.ops_ok = 0
        self.ops_failed = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()

    def enter(self) -> None:
        with self._lock:
            self.in_flight += 1
            if self.in_flight > self.peak_in_flight:
                self.peak_in_flight = self.in_flight

    def exit(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def observe(self, seconds: float, ok: bool) -> None:
        with self._lock:
            self.digest.observe(max(seconds, 1e-9))
            if ok:
                self.ops_ok += 1
            else:
                self.ops_failed += 1


def _build_realm(config: LoadConfig) -> Realm:
    telemetry = None
    if config.meter_usage:
        telemetry = Telemetry(meter_usage=True)
    seed = b"load-%d" % config.seed
    common = dict(
        seed=seed,
        real_time=True,
        latency=LatencyModel(
            base=config.base_latency, jitter=config.jitter
        ),
        telemetry=telemetry,
    )
    if config.mode == "aio":
        return Realm(
            runtime="aio",
            max_batch=config.max_batch,
            request_timeout=config.request_timeout,
            **common,
        )
    if config.mode == "sync":
        return Realm(runtime="sync", **common)
    raise ValueError(f"mode must be 'aio' or 'sync', not {config.mode!r}")


def provision(
    scenario: LoadScenario, realm: Realm, config: LoadConfig
) -> Tuple[dict, list]:
    """Deploy ``scenario`` on ``realm``: ``(state, per-principal states)``.

    Sequential and inline — what every consumer of a scenario runs before
    its first :meth:`~LoadScenario.op`, so none measures (or injects
    faults into) Kerberos bootstrapping.
    """
    state = scenario.setup(realm, config)
    return state, [
        scenario.principal(realm, config, state, i)
        for i in range(config.principals)
    ]


def warm_up(
    scenario: LoadScenario, realm: Realm, config: LoadConfig
) -> Tuple[dict, object]:
    """Provision one principal and run its op ``k=0``, dropping its spans:
    the figures leave key-distribution traffic out (§2).  Returns
    ``(state, pstate)`` with tickets and caches warm."""
    state, (pstate,) = provision(scenario, realm, config)
    scenario.op(realm, config, state, pstate, 0, 0)
    if realm.telemetry.enabled:
        realm.telemetry.tracer.clear()
        realm.telemetry.store.clear()
    return state, pstate


def run_figure(
    name: str, telemetry: Optional[Telemetry] = None
) -> Telemetry:
    """Record one warm op of scenario ``name`` on the simulated clock.

    What ``python -m repro trace``, ``usage`` and ``profile`` show: the
    same op :func:`run_load`, the chaos campaigns and ``perf/`` measure.
    """
    scenario = _scenario(name)
    if telemetry is None:
        telemetry = Telemetry()
    realm = Realm(seed=b"obs-" + name.encode(), telemetry=telemetry)
    config = LoadConfig(scenario=name, principals=1, mode="sync")
    state, pstate = warm_up(scenario, realm, config)
    with telemetry.run(name):
        scenario.op(realm, config, state, pstate, 0, 1)
    return telemetry


def _scenario(name: str) -> LoadScenario:
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None


def _run_one(
    scenario: LoadScenario,
    realm: Realm,
    config: LoadConfig,
    state: dict,
    meter: _Meter,
    pstate,
    i: int,
    k: int,
) -> None:
    start = time.perf_counter()
    try:
        scenario.op(realm, config, state, pstate, i, k)
    except ReproError:
        meter.observe(time.perf_counter() - start, ok=False)
    else:
        meter.observe(time.perf_counter() - start, ok=True)


def _drive_sync(
    scenario: LoadScenario,
    realm: Realm,
    config: LoadConfig,
    state: dict,
    pstates: list,
    meter: _Meter,
    deadline: Optional[float],
) -> None:
    meter.enter()
    try:
        for k in range(config.ops):
            for i, pstate in enumerate(pstates):
                if deadline is not None and time.perf_counter() > deadline:
                    return
                _run_one(scenario, realm, config, state, meter, pstate, i, k)
    finally:
        meter.exit()


async def _drive_aio(
    scenario: LoadScenario,
    realm: Realm,
    config: LoadConfig,
    state: dict,
    pstates: list,
    meter: _Meter,
    deadline: Optional[float],
) -> None:
    network = realm.network
    assert isinstance(network, AioNetwork)
    loop = asyncio.get_running_loop()
    pool = ThreadPoolExecutor(
        max_workers=max(1, config.concurrency),
        thread_name_prefix="load-client",
    )

    async def principal_stream(i: int, pstate) -> None:
        meter.enter()
        try:
            for k in range(config.ops):
                if deadline is not None and time.perf_counter() > deadline:
                    return
                await loop.run_in_executor(
                    pool,
                    _run_one,
                    scenario,
                    realm,
                    config,
                    state,
                    meter,
                    pstate,
                    i,
                    k,
                )
        finally:
            meter.exit()

    try:
        async with network.serve():
            for endpoint, prefetcher in (
                scenario.prefetchers(state) if config.prefetch else []
            ):
                network.set_prefetcher(endpoint, prefetcher)
            await asyncio.gather(
                *(
                    principal_stream(i, pstate)
                    for i, pstate in enumerate(pstates)
                )
            )
    finally:
        pool.shutdown(wait=True)


def run_load(config: LoadConfig) -> LoadReport:
    """Provision, drive, and measure one load run.

    Returns the :class:`LoadReport`; ``report.problems`` is non-empty when
    a post-run invariant (audit counts, fig5 conservation) failed.
    """
    scenario = _scenario(config.scenario)
    if config.principals < 1:
        raise ValueError("need at least one principal")
    realm = _build_realm(config)

    # Sequential, undilated provisioning: the run measures the request
    # path, not setup.
    state, pstates = provision(scenario, realm, config)
    setup_messages = realm.network.metrics.messages
    setup_bytes = realm.network.metrics.bytes
    realm.network.time_dilation = config.time_dilation

    meter = _Meter()
    start = time.perf_counter()
    deadline = start + config.duration if config.duration > 0 else None
    if config.mode == "aio":
        asyncio.run(
            _drive_aio(
                scenario, realm, config, state, pstates, meter, deadline
            )
        )
    else:
        _drive_sync(
            scenario, realm, config, state, pstates, meter, deadline
        )
    wall = time.perf_counter() - start
    realm.network.time_dilation = 0.0

    percentiles = {
        "p50": meter.digest.quantile(0.50) * 1000.0,
        "p95": meter.digest.quantile(0.95) * 1000.0,
        "p99": meter.digest.quantile(0.99) * 1000.0,
    }
    runtime: Dict[str, int] = {}
    network = realm.network
    if isinstance(network, AioNetwork):
        stats = network.stats
        runtime = {
            "queued": stats.queued,
            "batches": stats.batches,
            "batched_messages": stats.batched_messages,
            "max_queue_depth": stats.max_queue_depth,
            "prefetched_checks": stats.prefetched_checks,
            "timeouts": stats.timeouts,
        }
    report = LoadReport(
        scenario=config.scenario,
        mode=config.mode,
        principals=config.principals,
        concurrency=config.concurrency if config.mode == "aio" else 1,
        wall_seconds=wall,
        ops_ok=meter.ops_ok,
        ops_failed=meter.ops_failed,
        percentiles_ms=percentiles,
        peak_in_flight=meter.peak_in_flight,
        messages=network.metrics.messages - setup_messages,
        bytes=network.metrics.bytes - setup_bytes,
        runtime=runtime,
        problems=scenario.check(realm, config, state, meter.ops_ok),
        extras=scenario.extras(realm, state),
    )
    usage = realm.telemetry.usage if realm.telemetry else None
    if usage is not None:
        ok, report.reconciliation = usage.reconcile(
            network.metrics.messages, network.metrics.bytes
        )
        if not ok:
            report.problems.append("usage meter does not reconcile")
    return report
