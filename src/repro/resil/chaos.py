"""Chaos campaigns: seeded fault injection against the paper's figures.

A campaign replays one of the paper's protocol workloads (fig1, fig3,
fig4, fig5) many times on a resilient realm while the simulated network
misbehaves — request legs dropped, reply legs lost after server side
effects committed, the issuing authority blackholed for a window, the
primary KDC killed outright.  Because the fabric is deterministic, the
same seed always produces the same faults, the same retries, and the
same recovery, so a chaos run is a *repeatable experiment*, not a dice
roll.

Every campaign runs twice:

* a **fault-free baseline** on an identically-seeded realm, recording
  each unit of work's application-level outcome;
* the **faulted run**, under the requested fault mix.

The report compares outcomes unit by unit (*parity*): with retries on,
a correct resilience layer must deliver exactly the results the healthy
system would have — drops become latency, never divergence.  With
``retry=False`` the same campaign is the control arm: failures surface
as unrecoverable errors, which is the point of the comparison.

The figures are not defined here.  A campaign deploys and drives the
scenario classes of :data:`repro.workloads.load.SCENARIOS` — the same
``setup → principal → op`` hooks ``python -m repro load`` and the
end-to-end benchmark run — with one principal (``p0``), so the evidence
gates exercise the code that is measured:

* ``fig1`` — bearer capability presented anonymously (§3.1).  No
  authority is on the request path, so even a KDC outage only slows
  things down: verification is offline.
* ``fig3`` — authorization-server grants (§3.2).  The one figure a
  campaign specialises: its client is the
  :class:`~repro.resil.degraded.ResilientAuthorizationClient`, so an
  ``--outage`` window on the authorization server exercises degraded
  mode end to end (cached proxies honoured, grants flagged in the
  audit log).
* ``fig4`` — a delegate cascade alice → carol0 → dave0 presented with a
  session (§3.4); every unit verifies the chain.
* ``fig5`` — cross-bank check clearing (§4): write, endorse, deposit,
  with the inter-bank E2 hop (``bank-b`` → ``bank-a``) riding the same
  resilient fabric.
* ``fig5-mix`` — §4's whole accounting surface: each unit is one seeded
  :class:`~repro.workloads.load.Fig5Mix` variant (checks, certified and
  cashier's checks, transfers, replays, malformed requests) across three
  banks with a routed clearing hop.  Campaign-only, not a load scenario.

After every unit, on both arms, the campaign runs the scenario's
``check()`` (for fig5: per-currency conservation, ledger audit parity,
no open transaction) and reports each problem once, tagged with the
unit after which it first appeared.  The faulted arm keeps a unit's
spans only while it decides whether the unit offended — failed, diverged
from the baseline, or broke ``check()`` — and renders at most
:data:`FORENSIC_DUMP_LIMIT` offenders' traces on the spot.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.clock import SimulatedClock
from repro.durability import DurabilityStore
from repro.encoding.identifiers import PrincipalId
from repro.errors import ReproError
from repro.kerberos.kdc import kdc_principal
from repro.obs.export import render_trace_waterfall
from repro.obs.telemetry import Telemetry
from repro.resil.policy import NO_RETRY, RetryPolicy
from repro.services.accounting import AccountingServer
from repro.testbed import Realm
from repro.workloads.load import (
    SCENARIOS,
    Fig3Scenario,
    Fig5Mix,
    LoadConfig,
    LoadScenario,
    warm_up,
)

#: The campaign policy leans harder on retries than the realm default:
#: at 30% request loss a send still fails outright only with
#: probability 0.3^8 ≈ 7e-5, so seeded acceptance runs recover fully.
CAMPAIGN_POLICY = RetryPolicy(max_attempts=8)


@dataclass(frozen=True)
class CampaignSpec:
    """One chaos experiment, fully determined by its fields."""

    figure: str
    seed: int = 7
    units: int = 20
    #: Probability of losing each request leg / each response leg.
    drop_rate: float = 0.0
    response_drop_rate: float = 0.0
    #: False runs the control arm (no retries — failures expected).
    retry: bool = True
    #: Blackhole the workload's authority for a window, expressed as
    #: ``(start, stop)`` offsets in seconds from fault-injection time.
    outage: Optional[Tuple[float, float]] = None
    #: Stand up a KDC replica, then permanently blackhole the primary
    #: before any traffic flows — everything must fail over.
    kill_primary: bool = False
    #: Simulated seconds between unit arrivals.  Units are near-instant
    #: on the simulated fabric; pacing spreads them out so ``outage``
    #: windows expressed in seconds actually overlap the workload.
    pacing: float = 1.0
    #: Kill workload servers mid-campaign and rebuild each from its
    #: durability store: every ``(server_name, tick)`` pair crashes
    #: ``server_name`` just before unit ``tick`` runs.  Only the faulted
    #: arm crashes; the baseline stays up, so parity proves recovery is
    #: lossless.
    crash_restart: Tuple[Tuple[str, int], ...] = ()
    #: Delivery runtime for both arms: ``"sync"`` or ``"aio"``.
    runtime: str = "sync"
    #: Directory for WAL/snapshot files (a temp dir, removed after the
    #: run, when None).
    data_dir: Optional[str] = None

    def describe_faults(self) -> str:
        parts = []
        if self.drop_rate:
            parts.append(f"request-drop {self.drop_rate:.0%}")
        if self.response_drop_rate:
            parts.append(f"response-drop {self.response_drop_rate:.0%}")
        if self.outage:
            start, stop = self.outage
            parts.append(f"authority outage t+{start:g}s..t+{stop:g}s")
        if self.kill_primary:
            parts.append("primary KDC killed (replica stands in)")
        if self.crash_restart:
            kills = ", ".join(
                f"{server} before unit {tick}"
                for server, tick in self.crash_restart
            )
            parts.append(f"crash-restart {kills} (recover from WAL)")
        return ", ".join(parts) if parts else "none"


@dataclass(frozen=True)
class UnitResult:
    """Outcome of one unit of figure work."""

    index: int
    ok: bool
    outcome: Any = None
    error: str = ""
    #: Trace id of the unit's causal trace on the faulted arm ("" when
    #: the realm ran without telemetry, e.g. the baseline).
    trace_id: str = ""


@dataclass
class ChaosReport:
    """What the faulted run did, and whether it matched the baseline."""

    spec: CampaignSpec
    units: List[UnitResult]
    baseline_units: List[UnitResult]
    stats: Dict[str, int]
    dedupe_hits: int
    degraded_client: int
    degraded_server: int
    sim_seconds: float
    finale: Any = None
    baseline_finale: Any = None
    extras: Dict[str, int] = field(default_factory=dict)
    #: Machine-checked failures: a restarted server's recovery report
    #: (unreplayable WAL records, snapshot gaps) and, on both arms, the
    #: scenario's own ``check()`` after every unit — audit counts; for
    #: fig5, conservation and derived-vs-live ledger parity — each problem
    #: once, as ``unit N: problem`` for the unit after which it appeared.
    #: Empty means the books balance and every restarted server came back
    #: with an audit trail that parses.
    recovery_problems: List[str] = field(default_factory=list)
    #: Pre-rendered causal waterfalls of the first offending units of a
    #: resilient run (forensic auto-dump).
    forensics: List[str] = field(default_factory=list)

    # -- derived -----------------------------------------------------------

    @property
    def unrecoverable(self) -> int:
        return sum(1 for unit in self.units if not unit.ok)

    @property
    def compared(self) -> int:
        return sum(
            1
            for mine, theirs in zip(self.units, self.baseline_units)
            if mine.ok and theirs.ok
        )

    def mismatches(self) -> List[int]:
        """Unit indices where both runs succeeded but outcomes differ."""
        return [
            mine.index
            for mine, theirs in zip(self.units, self.baseline_units)
            if mine.ok and theirs.ok and mine.outcome != theirs.outcome
        ]

    @property
    def parity(self) -> bool:
        """True when every comparable outcome matches the baseline.

        Final state (e.g. account balances) is only comparable when
        *both* runs completed every unit — a failed unit legitimately
        leaves different balances behind.
        """
        if self.mismatches():
            return False
        baseline_clean = all(unit.ok for unit in self.baseline_units)
        if (
            baseline_clean
            and self.unrecoverable == 0
            and self.finale != self.baseline_finale
        ):
            return False
        return True

    def exit_code(self) -> int:
        """Non-zero only when the resilient arm failed its promise."""
        if not self.spec.retry:
            return 0
        if self.unrecoverable or not self.parity:
            return 1
        return 1 if self.recovery_problems else 0

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        spec = self.spec
        lines = [
            f"== chaos campaign: {spec.figure} (seed {spec.seed}) ==",
            f"units: {spec.units}   retries: "
            + (
                f"on (max {CAMPAIGN_POLICY.max_attempts} attempts)"
                if spec.retry
                else "OFF (control arm)"
            ),
            f"faults: {spec.describe_faults()}",
            "",
            "recovery report",
        ]
        counters = [
            ("sends", self.stats.get("sends", 0)),
            ("retries", self.stats.get("retries", 0)),
            ("deduped resends", self.dedupe_hits),
            ("failovers", self.stats.get("failovers", 0)),
            ("breaker opens", self.stats.get("breaker_opens", 0)),
            ("circuit rejections", self.stats.get("circuit_rejections", 0)),
            ("degraded grants (server)", self.degraded_server),
            ("degraded grants (client cache)", self.degraded_client),
        ]
        counters.extend(self.extras.items())
        counters.append(
            ("unrecoverable", f"{self.unrecoverable} / {spec.units} units")
        )
        counters.append(("simulated time", f"{self.sim_seconds:.1f}s"))
        width = max(len(name) for name, _ in counters) + 2
        for name, value in counters:
            lines.append(f"  {name} ".ljust(width + 2, ".") + f" {value}")
        lines.append("")
        if self.unrecoverable:
            failed = [unit for unit in self.units if not unit.ok]
            lines.append(
                f"failed units: "
                + ", ".join(str(unit.index) for unit in failed)
            )
            for unit in failed[:5]:
                suffix = (
                    f"  (trace {unit.trace_id[:12]}…)"
                    if unit.trace_id
                    else ""
                )
                lines.append(f"  unit {unit.index}: {unit.error}{suffix}")
            lines.append("")
        if self.recovery_problems:
            lines.append(
                f"recovery: FAIL — {len(self.recovery_problems)} "
                "problem(s) in the books or the rebuilt durable state"
            )
            for problem in self.recovery_problems[:5]:
                lines.append(f"  {problem}")
        elif self.spec.crash_restart:
            lines.append(
                "recovery: OK — restarted server rebuilt from "
                "WAL+snapshot with balanced books"
            )
        mismatched = self.mismatches()
        if mismatched:
            lines.append(
                "parity: FAIL — outcomes diverged from the fault-free "
                f"baseline at units {mismatched}"
            )
        elif not self.parity:
            lines.append(
                "parity: FAIL — final state diverged from the fault-free "
                "baseline"
            )
        else:
            lines.append(
                f"parity: PASS — {self.compared}/{spec.units} comparable "
                "unit outcomes match the fault-free baseline"
            )
        if spec.retry:
            lines.append(
                "verdict: "
                + (
                    "all work recovered"
                    if self.exit_code() == 0
                    else "RESILIENCE FAILURE"
                )
            )
        else:
            lines.append(
                "verdict: control arm — "
                f"{self.unrecoverable} unit(s) lost without retries"
            )
        if self.forensics:
            lines.append("")
            lines.append("forensic traces (offending units):")
            for dump in self.forensics:
                lines.append("")
                lines.append(dump)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# What a campaign adds to a figure
# ---------------------------------------------------------------------------

#: The load-table figures a campaign can run.  Each is deployed and
#: driven through the one definition in
#: :data:`repro.workloads.load.SCENARIOS` — the code ``python -m repro
#: load`` and the end-to-end benchmark measure — with a single principal
#: (``p0``).
FIGURES = ("fig1", "fig3", "fig4", "fig5")
#: Everything ``python -m repro chaos`` runs: the figures and the
#: campaign-only fig5 variant mix.
CAMPAIGNS = (*FIGURES, Fig5Mix.name)


class _Fig3(Fig3Scenario):
    """Fig. 3 with the degraded-mode client cache (§3.1–3.2)."""

    def _authorization_client(self, realm, user, authz):
        self.azc = user.resilient_authorization_client(
            authz, telemetry=realm.telemetry
        )
        return self.azc

    def degraded_counts(self, state: dict) -> Tuple[int, int]:
        """(client-cache grants, server-honoured grants) in degraded mode."""
        server_side = sum(
            1 for record in state["fs"].audit.all() if record.degraded
        )
        return self.azc.degraded_grants, server_side


def scenario_for(figure: str) -> LoadScenario:
    """The load table's scenario for ``figure``, fig3 specialised, or the
    campaign-only fig5 variant mix."""
    special = {"fig3": _Fig3, Fig5Mix.name: Fig5Mix}
    return (special.get(figure) or SCENARIOS[figure])()


def _authority(realm: Realm, state: dict) -> PrincipalId:
    """The principal an ``--outage`` window blackholes: the deployment's
    authorization server where it has one (fig3), else the KDC."""
    authz = state.get("authz")
    return authz.principal if authz else kdc_principal(realm.realm)


def finale(state: dict) -> Dict[str, Dict[str, Dict[str, int]]]:
    """Closing books, bank -> account -> balances (fig5; else {})."""
    return {
        server.principal.name: {
            name: dict(account.balances)
            for name, account in server.accounts.items()
        }
        for server in state.values()
        if isinstance(server, AccountingServer)
    }


def _server_key(figure: str, state: dict, name: str) -> str:
    """The state key of the server a ``crash_restart`` fault names."""
    servers = {
        value.principal.name: key
        for key, value in state.items()
        if hasattr(value, "durability")
    }
    if name not in servers:
        raise ValueError(
            f"{figure} cannot crash-restart {name!r}; "
            f"its servers: {sorted(servers)}"
        )
    return servers[name]


# ---------------------------------------------------------------------------
# The campaign runner
# ---------------------------------------------------------------------------


#: A failed campaign dumps at most this many unit traces — enough to
#: diagnose, small enough to read in a CI log.
FORENSIC_DUMP_LIMIT = 3


def _run_arm(
    spec: CampaignSpec,
    data_dir: Optional[str],
    baseline: Optional[List[UnitResult]] = None,
) -> Tuple[Realm, LoadScenario, dict]:
    """Deploy and run one arm; returns (realm, scenario, results dict).

    ``baseline`` is the fault-free arm's units: given, this is the
    faulted arm, which compares each unit to it as the unit ends.
    """
    faulted = baseline is not None
    # The faulted arm records full traces so a failed campaign can dump
    # the offending units' causal history.  The tracer draws ids from its
    # own rng, so tracing never perturbs the realm's seeded behaviour —
    # the baseline stays untraced because parity compares application
    # outcomes, and recording both arms would double the span load.
    realm = Realm(
        seed=f"chaos-{spec.figure}-{spec.seed}".encode(),
        resilience=(
            CAMPAIGN_POLICY if (spec.retry or not faulted) else NO_RETRY
        ),
        telemetry=Telemetry() if faulted else None,
        runtime=spec.runtime,
    )
    scenario = scenario_for(spec.figure)
    if faulted and spec.crash_restart:
        # The crash loses the process, not the WAL: every targeted server
        # is built on a store (the baseline arm stays memory-only).
        scenario.stores = {
            name: DurabilityStore(
                os.path.join(data_dir, name),
                telemetry=realm.telemetry,
                server=name,
            )
            for name in dict.fromkeys(name for name, _ in spec.crash_restart)
        }
    if faulted and spec.kill_primary:
        # Before any traffic, so even ticket warm-up exercises failover.
        realm.kdc_replica("kdc-standby")
        realm.network.blackhole(kdc_principal(realm.realm))
    config = LoadConfig(
        scenario=spec.figure, principals=1, mode=spec.runtime, seed=spec.seed
    )
    telemetry = realm.telemetry
    out: dict = {"restarted": [], "problems": [], "forensics": []}

    def body() -> None:
        # Units meet warm tickets and caches; provisioning traffic is
        # part of no unit.
        state, pstate = warm_up(scenario, realm, config)
        crashes: Dict[int, List[str]] = {}
        for name, tick in spec.crash_restart:
            # Both arms check the name; only the faulted one crashes.
            key = _server_key(spec.figure, state, name)
            if faulted:
                crashes.setdefault(tick, []).append(key)
        if faulted:
            _inject(realm, state, spec)
        started = realm.clock.now()
        units: List[UnitResult] = []
        seen: set = set()
        for index in range(spec.units):
            if spec.pacing > 0 and isinstance(realm.clock, SimulatedClock):
                realm.clock.advance(spec.pacing)
            trace_id, outcome, error = "", None, ""
            try:
                with telemetry.run(f"{spec.figure}-unit-{index}") as run_span:
                    trace_id = run_span.trace_id or ""
                    for key in crashes.get(index, ()):
                        state[key] = realm.crash_restart(
                            state[key], unit=index
                        )
                        out["restarted"].append(state[key])
                    outcome = scenario.op(
                        realm, config, state, pstate, 0, index
                    )
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
            unit = UnitResult(
                index=index,
                ok=not error,
                outcome=outcome,
                error=error,
                trace_id=trace_id,
            )
            units.append(unit)
            fresh = [
                problem
                for problem in scenario.check(
                    realm, config, state, sum(1 for u in units if u.ok)
                )
                if problem not in seen
            ]
            seen.update(fresh)
            out["problems"].extend(f"unit {index}: {p}" for p in fresh)
            if faulted:
                theirs = baseline[index]
                offended = (
                    fresh
                    or not unit.ok
                    or (theirs.ok and unit.outcome != theirs.outcome)
                )
                if (
                    offended
                    and spec.retry
                    and len(out["forensics"]) < FORENSIC_DUMP_LIMIT
                ):
                    spans = telemetry.store.by_trace(trace_id)
                    if spans:
                        out["forensics"].append(render_trace_waterfall(spans))
                # Rendered or not, nothing needs the unit's spans again:
                # a long campaign's memory stays flat.
                telemetry.tracer.clear()
                telemetry.store.clear()
        out["units"] = units
        out["state"] = state
        out["sim_seconds"] = realm.clock.now() - started
        out["finale"] = finale(state)

    if spec.runtime == "aio":
        # Deployment included: it must happen inside the served loop.
        from repro.net.aio import drive

        drive(realm.network, body)
    else:
        body()
    return realm, scenario, out


def _inject(realm: Realm, state: dict, spec: CampaignSpec) -> None:
    network = realm.network
    if spec.drop_rate:
        network.set_drop_probability(spec.drop_rate, leg="request")
    if spec.response_drop_rate:
        network.set_drop_probability(
            spec.response_drop_rate, leg="response"
        )
    if spec.outage:
        start, stop = spec.outage
        now = realm.clock.now()
        network.blackhole(
            _authority(realm, state), since=now + start, until=now + stop
        )


def run_campaign(spec: CampaignSpec) -> ChaosReport:
    """Run the baseline and the faulted arm; return the comparison."""
    if spec.figure not in CAMPAIGNS:
        raise ValueError(
            f"unknown figure {spec.figure!r}; choose from {sorted(CAMPAIGNS)}"
        )
    if spec.units < 1:
        raise ValueError("a campaign needs at least one unit")
    for _, tick in spec.crash_restart:
        if not 0 <= tick < spec.units:
            raise ValueError(
                f"crash-restart tick {tick} must fall inside the "
                f"campaign's {spec.units} units"
            )
    if len(set(spec.crash_restart)) < len(spec.crash_restart):
        raise ValueError("a crash-restart (server, tick) may appear once")

    data_dir = spec.data_dir
    scratch: Optional[str] = None
    if spec.crash_restart and data_dir is None:
        data_dir = scratch = tempfile.mkdtemp(prefix="repro-chaos-wal-")
    try:
        _, _, base = _run_arm(spec, data_dir)
        realm, scenario, run = _run_arm(spec, data_dir, base["units"])
        restarted = run["restarted"]

        degraded_client, degraded_server = (
            scenario.degraded_counts(run["state"])
            if isinstance(scenario, _Fig3)
            else (0, 0)
        )
        extras: Dict[str, int] = {}
        if restarted:
            extras["crash restarts"] = len(restarted)
            extras["wal records replayed"] = sum(
                server.recovery.total_replayed for server in restarted
            )
        return ChaosReport(
            spec=spec,
            units=run["units"],
            baseline_units=base["units"],
            stats=realm.channel.stats.as_dict(),
            dedupe_hits=sum(cache.hits for cache in realm.dedupe_caches),
            degraded_client=degraded_client,
            degraded_server=degraded_server,
            sim_seconds=run["sim_seconds"],
            finale=run["finale"],
            baseline_finale=base["finale"],
            extras=extras,
            recovery_problems=[
                *(
                    f"{server.principal.name}: {problem}"
                    for server in restarted
                    for problem in server.recovery.problems
                ),
                *(f"baseline: {problem}" for problem in base["problems"]),
                *run["problems"],
            ],
            forensics=run["forensics"],
        )
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
