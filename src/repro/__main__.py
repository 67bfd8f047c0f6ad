"""``python -m repro`` — a guided tour of the restricted-proxy system.

With no arguments, runs a condensed end-to-end demonstration of every
§3/§4 mechanism on a fresh simulated realm, narrating what the paper
calls each step (for the full walkthroughs see ``examples/``).

``python -m repro trace <scenario>`` replays one warm op of a load
scenario (fig1, fig3, fig4, fig5, pk-verify, echo) — the op the
benchmark measures — under live telemetry and prints the span tree, the
numbered message trace in the figure's notation, and the Prometheus
metrics the run produced.  ``--follow TRACE_ID`` renders
one logical request's causal waterfall instead (trace-id prefixes work,
like git commits).

``python -m repro forensics --from spans.jsonl`` reloads a ``--jsonl``
span dump for offline forensics: summarize the traces it contains,
render one with ``--trace``, or schema-check the dump with
``--validate`` (the CI trace-smoke gate).

``python -m repro chaos <figure>`` runs a seeded fault campaign against
the same figure workloads on the resilience layer and prints a recovery
report — retries, failovers, dedupe, degraded grants — plus a parity
verdict against a fault-free baseline.  ``chaos fig5-mix`` drives seeded
variants across the whole accounting surface (checks, routed clearing,
certified and cashier's checks, transfers, replays, malformed requests)
and checks the ledger's conservation invariants after every unit; add
``--drop-rate``/``--response-drop-rate`` or repeated ``--crash-restart``
for faults.  Exits non-zero on any violation.

``python -m repro usage <scenario>`` replays the same op with per-principal
usage metering on and prints the attribution report (``--top``,
``--principal``, ``--json``), the reconciliation verdict against the
network's own byte counters, and — with ``--charge`` — posts tariffed
charges through an accounting server's ledger, machine-checking
conservation afterwards.  Exits non-zero on any mismatch, and when
nothing was metered at all.

``python -m repro profile <scenario>`` (or ``--from spans.jsonl``) folds
the run's spans into flame-graph folded stacks — self-time on the
simulated clock by default, span counts with ``--weight count`` — and
can write a speedscope document with ``--speedscope``.

``python -m repro load <scenario>`` drives many concurrent principals
against a realm on the asyncio runtime (``--mode sync`` for the
single-thread baseline) and reports throughput, p50/p95/p99 latency,
cross-request batching counters, and the scenario's conservation
verdict (``--usage`` adds the metering reconciliation line).  Exits
non-zero if any post-run invariant failed.  See ``docs/scaling.md``.
"""

from __future__ import annotations

import argparse

from repro.acl import AclEntry, GroupSubject, SinglePrincipal
from repro.core.restrictions import Authorized, AuthorizedEntry
from repro.errors import ReproError
from repro.kerberos.proxy_support import grant_via_credentials
from repro.testbed import Realm


def banner(text: str) -> None:
    print(f"\n== {text} ==")


def tour() -> None:
    print("repro — Neuman, 'Proxy-Based Authorization and Accounting for")
    print("Distributed Systems' (ICDCS 1993), reproduced in Python.")

    realm = Realm(seed=b"tour")
    alice, bob = realm.user("alice"), realm.user("bob")
    fs = realm.file_server("files")
    fs.grant_owner(alice.principal)
    fs.put("report.txt", b"quarterly numbers")

    banner("authentication (Kerberos V5 substrate, §6.2)")
    creds = alice.kerberos.get_ticket(fs.principal)
    print(f"alice holds a ticket for {creds.server}, "
          f"expires in {creds.expires_at - realm.clock.now():.0f}s")

    banner("capabilities (§3.1)")
    cap = grant_via_credentials(
        creds,
        (Authorized(entries=(AuthorizedEntry("report.txt", ("read",)),)),),
        realm.clock.now(),
    )
    data = bob.client_for(fs.principal).request(
        "read", "report.txt", proxy=cap, anonymous=True
    )["data"]
    print(f"bob reads via alice's capability: {data!r}")
    try:
        bob.client_for(fs.principal).request(
            "delete", "report.txt", proxy=cap, anonymous=True
        )
    except ReproError as exc:
        print(f"outside the restriction -> {exc}")

    banner("authorization server (§3.2, Fig. 3)")
    azs = realm.authorization_server("authz")
    fs.acl.add(AclEntry(subject=SinglePrincipal(azs.principal)))
    azs.database_for(fs.principal).add(
        AclEntry(subject=SinglePrincipal(bob.principal), operations=("read",))
    )
    proxy = bob.authorization_client(azs.principal).authorize(
        fs.principal, ("read",)
    )
    print(f"R issued [read only]_R to bob; he presents it to S:")
    data = bob.client_for(fs.principal).request(
        "read", "report.txt", proxy=proxy
    )["data"]
    print(f"  -> {data!r}")

    banner("group server (§3.3)")
    gs = realm.group_server("groups")
    staff = gs.create_group("staff", (bob.principal,))
    fs.acl.add(AclEntry(subject=GroupSubject(staff), operations=("stat",)))
    gid, gproxy = bob.group_client(gs.principal).get_group_proxy(
        "staff", fs.principal
    )
    out = bob.client_for(fs.principal).request(
        "stat", "report.txt", group_proxies=[(gid, gproxy)]
    )
    print(f"bob asserts {gid.group} membership; stat -> {out}")

    banner("accounting (§4, Fig. 5)")
    bank = realm.accounting_server("bank")
    bank.create_account("alice", alice.principal, {"dollars": 100})
    bank.create_account("bob", bob.principal)
    check = alice.accounting_client(bank.principal).write_check(
        "alice", bob.principal, "dollars", 25
    )
    result = bob.accounting_client(bank.principal).deposit_check(check, "bob")
    print(f"check #{check.number[:8]} cleared: paid {result['paid']}; "
          f"alice={bank.accounts['alice'].balance('dollars')}, "
          f"bob={bank.accounts['bob'].balance('dollars')}")
    try:
        bob.accounting_client(bank.principal).deposit_check(check, "bob")
    except ReproError as exc:
        print(f"double deposit -> {exc}")

    banner("the audit trail (§3.4)")
    for record in fs.audit.all():
        print(f"  {record.describe()}")

    snapshot = realm.network.metrics.snapshot()
    print(f"\ntotal network traffic: {snapshot.messages} messages, "
          f"{snapshot.bytes} bytes")
    print("see examples/ and EXPERIMENTS.md for the full reproduction.")


def trace(
    figure: str,
    jsonl: str = "",
    metrics: bool = True,
    verify_cache: bool = True,
    follow: str = "",
) -> None:
    """Replay one scenario op under telemetry and print every view of it."""
    from repro.core import vcache
    from repro.core.certificate import DECODED
    from repro.crypto import schnorr
    from repro.obs import Telemetry, render_trace_waterfall
    from repro.workloads.load import run_figure

    config = (
        vcache.DEFAULT_CONFIG if verify_cache else vcache.DISABLED_CONFIG
    )
    telemetry = Telemetry(capture_crypto=True)
    memo_before = DECODED.hits, DECODED.misses
    try:
        with vcache.override(config):
            run_figure(figure, telemetry)
    finally:
        telemetry.release_crypto()
    cert_hit = DECODED.hits - memo_before[0]
    cert_miss = DECODED.misses - memo_before[1]

    if follow:
        trace_id = telemetry.store.resolve(follow)
        if trace_id is None:
            known = "\n".join(
                f"  {t}" for t in telemetry.store.trace_ids()
            )
            raise SystemExit(
                f"no trace matches {follow!r}; {figure} recorded:\n{known}"
            )
        print(render_trace_waterfall(telemetry.store.by_trace(trace_id)))
        if jsonl:
            with open(jsonl, "w", encoding="utf-8") as handle:
                handle.write(telemetry.spans_jsonl() + "\n")
            print(f"\nwrote {len(telemetry.tracer.spans)} spans to {jsonl}")
        return

    print(f"== {figure}: span tree (simulated clock) ==\n")
    print(telemetry.render_tree())
    print(f"\n== {figure}: traces recorded (follow with --follow ID) ==\n")
    for trace_id in telemetry.store.trace_ids():
        spans = telemetry.store.by_trace(trace_id)
        duration = telemetry.store.duration_of(trace_id)
        print(
            f"  {trace_id}  {spans[0].name:<24} "
            f"{len(spans)} spans  {duration:.4f}s"
        )
    print(f"\n== {figure}: message trace (figure notation) ==\n")
    print(telemetry.render_message_trace())
    if metrics:
        print(f"\n== {figure}: metrics (Prometheus text format) ==\n")
        print(telemetry.prometheus(), end="")
        print(f"\n== {figure}: verification cache ==\n")
        counters = telemetry.metrics
        sig_hit = counters.counter("vcache.sig.hit").total()
        sig_miss = counters.counter("vcache.sig.miss").total()
        chain_hit = counters.counter("vcache.chain.hit").total()
        chain_miss = counters.counter("vcache.chain.miss").total()
        evictions = counters.counter("vcache.evictions").total()
        state = "on" if verify_cache else "off (--no-verify-cache)"
        print(f"verify cache: {state}")
        print(f"  signature memo: {sig_hit:.0f} hits, {sig_miss:.0f} misses")
        print(
            f"  chain prefixes: {chain_hit:.0f} hits, {chain_miss:.0f} misses"
        )
        ticket_hit = counters.counter("vcache.ticket.hit").total()
        ticket_miss = counters.counter("vcache.ticket.miss").total()
        print(
            f"  ticket memo: {ticket_hit:.0f} hits, {ticket_miss:.0f} misses"
        )
        print(f"  certificate memo: {cert_hit} hits, {cert_miss} misses")
        promoted = counters.counter("vcache.keytable.promoted").total()
        print(
            f"  key tables: {schnorr.registered_key_count()} live, "
            f"{promoted:.0f} keys promoted"
        )
        print(f"  evictions: {evictions:.0f}")
    if jsonl:
        with open(jsonl, "w", encoding="utf-8") as handle:
            handle.write(telemetry.spans_jsonl() + "\n")
        print(f"\nwrote {len(telemetry.tracer.spans)} spans to {jsonl}")


def chaos(args) -> int:
    """Run one chaos campaign and print its recovery report."""
    from repro.resil.chaos import CampaignSpec, run_campaign

    outage = None
    if args.outage:
        try:
            start, _, stop = args.outage.partition(":")
            outage = (float(start), float(stop))
        except ValueError:
            raise SystemExit(
                f"--outage wants START:STOP seconds, got {args.outage!r}"
            )
        if outage[0] >= outage[1]:
            raise SystemExit("--outage window must have START < STOP")
    crash_restart = []
    for value in args.crash_restart:
        server, sep, tick = value.rpartition(":")
        if not sep or not server:
            raise SystemExit(
                f"--crash-restart wants SERVER:TICK, got {value!r}"
            )
        try:
            crash_restart.append((server, int(tick)))
        except ValueError:
            raise SystemExit(
                f"--crash-restart tick must be an integer, got {tick!r}"
            )
    spec = CampaignSpec(
        figure=args.figure,
        seed=args.seed,
        units=args.units,
        drop_rate=args.drop_rate,
        response_drop_rate=args.response_drop_rate,
        retry=not args.no_retry,
        outage=outage,
        kill_primary=args.kill_primary,
        crash_restart=tuple(crash_restart),
        runtime=args.runtime,
        data_dir=args.data_dir or None,
    )
    report = run_campaign(spec)
    print(report.render())
    return report.exit_code()


def usage(args) -> int:
    """Replay a scenario op with metering on; report, reconcile, charge."""
    import json

    from repro.obs import Telemetry
    from repro.obs.usage import Tariff, charges_to_json
    from repro.workloads.load import run_figure

    telemetry = Telemetry(capture_crypto=True, meter_usage=True)
    try:
        run_figure(args.figure, telemetry)
    finally:
        telemetry.release_crypto()
    meter = telemetry.usage

    print(f"== {args.figure}: per-principal usage ==\n")
    print(
        meter.report(
            top=args.top,
            principal=args.principal or None,
            include_cpu=args.cpu,
        )
    )

    # The acceptance gate: metered totals must equal the network layer's
    # own counters exactly, and be more than nothing.
    net_messages = int(
        telemetry.metrics.counter("network_messages_total").total()
    )
    net_bytes = int(telemetry.metrics.counter("network_bytes_total").total())
    reconciled, verdict = meter.reconcile(net_messages, net_bytes)
    print(f"\nreconciliation: {verdict}")
    exit_code = 0 if reconciled else 1

    charges = []
    conservation = None
    if args.charge:
        from repro.testbed import Realm

        bank = Realm(seed=b"usage-charge").accounting_server("usage-bank")
        tariff = Tariff()
        charges = bank.charge_usage(meter, tariff, period=args.figure)
        problems = bank.ledger.audit_discrepancies()
        conservation = "ok" if not problems else "VIOLATED"
        print(f"\ncharges (tariff: {tariff.currency}):")
        for charge in charges:
            print(
                f"  {charge.principal:<24} {charge.amount:>6} "
                f"{charge.currency}  (posting {charge.posting_id})"
            )
        print(
            f"ledger conservation after charging: {conservation} "
            f"(totals {bank.ledger.totals()} == "
            f"minted {bank.ledger.expected_totals()})"
        )
        for problem in problems:
            print(f"  PROBLEM: {problem}")
        if problems:
            exit_code = 1

    if args.json:
        payload = {
            "figure": args.figure,
            "usage": meter.to_json(include_cpu=True),
            "reconciliation": {
                "ok": reconciled,
                "metered_messages": meter.total_messages(),
                "metered_bytes": meter.total_bytes(),
                "net_messages": net_messages,
                "net_bytes": net_bytes,
            },
        }
        if args.charge:
            payload["charges"] = charges_to_json(charges)
            payload["conservation"] = conservation
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return exit_code


def profile(args) -> int:
    """Fold a run's spans (or a dump's) into flame-graph output."""
    import json

    from repro.obs.profile import (
        folded_stacks,
        render_call_tree,
        speedscope_document,
    )

    if args.source:
        from repro.obs.store import load_spans_jsonl

        try:
            with open(args.source, "r", encoding="utf-8") as handle:
                spans = load_spans_jsonl(handle.read())
        except (OSError, ValueError) as exc:
            print(f"cannot load {args.source}: {exc}")
            return 2
        name = args.source
    else:
        if not args.figure:
            raise SystemExit("profile needs a scenario or --from SPANS.JSONL")
        from repro.obs import Telemetry
        from repro.workloads.load import run_figure

        telemetry = Telemetry(capture_crypto=True, meter_usage=True)
        try:
            run_figure(args.figure, telemetry)
        finally:
            telemetry.release_crypto()
        spans = telemetry.tracer.finished_spans()
        name = args.figure

    if args.tree:
        print(f"== {name}: aggregated call tree ==\n")
        print(render_call_tree(spans))
        print()
    lines = folded_stacks(spans, weight=args.weight)
    print(f"== {name}: folded stacks (weight: {args.weight}) ==\n")
    if lines:
        for line in lines:
            print(line)
    else:
        print(
            "(no positive self-time on the simulated clock — spans "
            "that send no message never advance it; try --weight count)"
        )
    if args.speedscope:
        document = speedscope_document(spans, name=name)
        with open(args.speedscope, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.speedscope}")
    return 0


def forensics(args) -> int:
    """Offline forensics over a ``--jsonl`` span dump."""
    from repro.obs.export import render_trace_waterfall
    from repro.obs.store import TraceStore, load_spans_jsonl, validate_spans

    try:
        with open(args.source, "r", encoding="utf-8") as handle:
            spans = load_spans_jsonl(handle.read())
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.source}: {exc}")
        return 2

    if args.validate:
        problems = validate_spans(spans)
        if problems:
            print(f"{args.source}: {len(problems)} schema violation(s)")
            for problem in problems:
                print(f"  {problem}")
            return 1
        traces = {s.trace_id for s in spans}
        print(
            f"{args.source}: {len(spans)} spans across {len(traces)} "
            f"trace(s), schema ok"
        )
        return 0

    store = TraceStore()
    store.extend(spans)

    if args.trace:
        trace_id = store.resolve(args.trace)
        if trace_id is None:
            print(f"no trace in {args.source} matches {args.trace!r}")
            return 1
        print(render_trace_waterfall(store.by_trace(trace_id)))
        return 0

    print(f"{args.source}: {len(store)} spans")
    print("\ntraces (slowest first):")
    for trace_id, duration in store.slowest(n=len(store.trace_ids())):
        members = store.by_trace(trace_id)
        print(
            f"  {trace_id}  {members[0].name:<24} "
            f"{len(members)} spans  {duration:.4f}s"
        )
    failed = store.failed()
    if failed:
        print("\ntraces containing error spans:")
        for trace_id in failed:
            print(f"  {trace_id}")
    principals = store.principals()
    if principals:
        print("\nprincipals seen:")
        for principal in principals:
            traces = store.by_principal(principal)
            print(f"  {principal}  ({len(traces)} trace(s))")
    return 0


def load(args) -> int:
    """Concurrent load run: throughput, percentiles, invariants."""
    import json

    from repro.workloads.load import LoadConfig, run_load

    config = LoadConfig(
        scenario=args.scenario,
        principals=args.principals,
        ops=args.ops,
        duration=args.duration,
        concurrency=args.concurrency,
        mode=args.mode,
        seed=args.seed,
        time_dilation=args.time_dilation,
        base_latency=args.base_latency,
        jitter=args.jitter,
        max_batch=args.max_batch,
        request_timeout=args.request_timeout,
        meter_usage=args.usage,
        prefetch=not args.no_prefetch,
    )
    report = run_load(config)
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return 1 if report.problems else 0


def main(argv=None) -> None:
    from repro.resil.chaos import CAMPAIGNS
    from repro.workloads.load import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Restricted-proxy reproduction: tour and protocol traces.",
    )
    sub = parser.add_subparsers(dest="command")
    trace_parser = sub.add_parser(
        "trace", help="replay one scenario op under telemetry"
    )
    trace_parser.add_argument("figure", choices=sorted(SCENARIOS))
    trace_parser.add_argument(
        "--jsonl", default="", help="also dump spans as JSON lines to a file"
    )
    trace_parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="skip the Prometheus metrics section",
    )
    trace_parser.add_argument(
        "--no-verify-cache",
        action="store_true",
        help="run with the verification fast path disabled",
    )
    trace_parser.add_argument(
        "--follow",
        default="",
        metavar="TRACE_ID",
        help="render one trace's causal waterfall (prefix ok) instead "
        "of the full report",
    )
    forensics_parser = sub.add_parser(
        "forensics",
        help="inspect or validate a spans --jsonl dump offline",
    )
    forensics_parser.add_argument(
        "--from",
        dest="source",
        required=True,
        metavar="SPANS.JSONL",
        help="span dump written by 'trace --jsonl'",
    )
    forensics_parser.add_argument(
        "--trace",
        default="",
        metavar="TRACE_ID",
        help="render this trace's waterfall (prefix ok)",
    )
    forensics_parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the dump (CI trace-smoke); non-zero on problems",
    )
    chaos_parser = sub.add_parser(
        "chaos",
        help="run a seeded fault campaign against a figure workload",
    )
    chaos_parser.add_argument("figure", choices=CAMPAIGNS)
    chaos_parser.add_argument(
        "--seed", type=int, default=7, help="campaign seed (default 7)"
    )
    chaos_parser.add_argument(
        "--units",
        type=int,
        default=20,
        help="units of figure work to run (default 20)",
    )
    chaos_parser.add_argument(
        "--drop-rate",
        type=float,
        default=0.0,
        help="probability of losing each request leg",
    )
    chaos_parser.add_argument(
        "--response-drop-rate",
        type=float,
        default=0.0,
        help="probability of losing each reply after the handler ran",
    )
    chaos_parser.add_argument(
        "--no-retry",
        action="store_true",
        help="control arm: no retries, failures are expected",
    )
    chaos_parser.add_argument(
        "--outage",
        default="",
        metavar="START:STOP",
        help="blackhole the figure's authority for this window "
        "(seconds from fault-injection time, e.g. 5:65)",
    )
    chaos_parser.add_argument(
        "--kill-primary",
        action="store_true",
        help="stand up a KDC replica and kill the primary outright",
    )
    chaos_parser.add_argument(
        "--crash-restart",
        action="append",
        default=[],
        metavar="SERVER:TICK",
        help="kill SERVER before unit TICK and rebuild it from its "
        "WAL+snapshot (e.g. files:10, bank-a:6); repeatable",
    )
    chaos_parser.add_argument(
        "--runtime",
        choices=("sync", "aio"),
        default="sync",
        help="delivery runtime for both arms (default sync)",
    )
    chaos_parser.add_argument(
        "--data-dir",
        default="",
        metavar="DIR",
        help="keep WAL+snapshot files here instead of a temp dir "
        "(inspectable after the run)",
    )
    usage_parser = sub.add_parser(
        "usage",
        help="per-principal usage metering report for one scenario op",
    )
    usage_parser.add_argument("figure", choices=sorted(SCENARIOS))
    usage_parser.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show only the N most byte-expensive (principal, operation) rows",
    )
    usage_parser.add_argument(
        "--principal",
        default="",
        help="show only rows attributed to this principal",
    )
    usage_parser.add_argument(
        "--cpu",
        action="store_true",
        help="include measured crypto/handler CPU columns (not "
        "deterministic across runs)",
    )
    usage_parser.add_argument(
        "--charge",
        action="store_true",
        help="post tariffed charges through an accounting server's ledger "
        "and machine-check conservation",
    )
    usage_parser.add_argument(
        "--json", default="", help="write the usage report to a file"
    )
    profile_parser = sub.add_parser(
        "profile",
        help="fold a run's spans into flame-graph folded stacks",
    )
    profile_parser.add_argument(
        "figure", nargs="?", choices=sorted(SCENARIOS)
    )
    profile_parser.add_argument(
        "--from",
        dest="source",
        default="",
        metavar="SPANS.JSONL",
        help="profile a span dump written by 'trace --jsonl' instead of "
        "running a figure",
    )
    profile_parser.add_argument(
        "--weight",
        choices=("time", "count"),
        default="time",
        help="stack weight: self-time microseconds (default) or span count",
    )
    profile_parser.add_argument(
        "--tree",
        action="store_true",
        help="also print the aggregated call tree",
    )
    profile_parser.add_argument(
        "--speedscope",
        default="",
        metavar="FILE",
        help="write a speedscope-compatible JSON document",
    )
    load_parser = sub.add_parser(
        "load",
        help="drive N concurrent principals and report throughput + "
        "latency percentiles",
    )
    load_parser.add_argument("scenario", choices=sorted(SCENARIOS))
    load_parser.add_argument(
        "--principals",
        type=int,
        default=100,
        metavar="N",
        help="independent principals to provision and drive (default 100)",
    )
    load_parser.add_argument(
        "--ops",
        type=int,
        default=3,
        metavar="K",
        help="requests per principal (default 3)",
    )
    load_parser.add_argument(
        "--duration",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock cap; 0 runs every stream to completion (default)",
    )
    load_parser.add_argument(
        "--concurrency",
        type=int,
        default=64,
        metavar="C",
        help="client requests allowed in flight at once (default 64)",
    )
    load_parser.add_argument(
        "--mode",
        choices=("aio", "sync"),
        default="aio",
        help="delivery runtime: queued asyncio (default) or the "
        "single-thread parity mode",
    )
    load_parser.add_argument(
        "--seed", type=int, default=7, help="realm seed (default 7)"
    )
    load_parser.add_argument(
        "--time-dilation",
        type=float,
        default=0.0,
        metavar="X",
        help="scale sampled per-hop latencies into real waits "
        "(0 = measure pure protocol cost)",
    )
    load_parser.add_argument(
        "--base-latency",
        type=float,
        default=0.001,
        metavar="SECONDS",
        help="latency model base per hop (default 0.001)",
    )
    load_parser.add_argument(
        "--jitter",
        type=float,
        default=0.0005,
        metavar="SECONDS",
        help="latency model jitter per hop (default 0.0005)",
    )
    load_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="B",
        help="aio inbox drain window / cross-request batch cap (default 64)",
    )
    load_parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="client-side wait cap per request in aio mode (default 30)",
    )
    load_parser.add_argument(
        "--usage",
        action="store_true",
        help="meter per-principal usage and print the reconciliation "
        "verdict against the network counters",
    )
    load_parser.add_argument(
        "--no-prefetch",
        action="store_true",
        help="disable cross-request signature batch prefetching",
    )
    load_parser.add_argument(
        "--json", default="", help="write the load report to a file"
    )
    args = parser.parse_args(argv)
    if args.command == "load":
        raise SystemExit(load(args))
    if args.command == "usage":
        raise SystemExit(usage(args))
    if args.command == "profile":
        raise SystemExit(profile(args))
    if args.command == "chaos":
        raise SystemExit(chaos(args))
    if args.command == "forensics":
        raise SystemExit(forensics(args))
    if args.command == "trace":
        trace(
            args.figure,
            jsonl=args.jsonl,
            metrics=not args.no_metrics,
            verify_cache=not args.no_verify_cache,
            follow=args.follow,
        )
    else:
        tour()


if __name__ == "__main__":
    main()
