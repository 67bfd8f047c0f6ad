#!/usr/bin/env python3
"""Cascaded authorization through a print pipeline (§3.4, Fig. 4).

A user sends a document through a formatting service and a spool service,
neither of which she fully trusts.  Rights flow as a cascade of proxies,
tightened at each hop; the delegate variant leaves an audit trail naming
every intermediate.

Run:  python examples/cascaded_print_pipeline.py
"""

from repro import Realm
from repro.audit import AuditLog
from repro.core.chain import describe
from repro.core.evaluation import RequestContext
from repro.core.restrictions import Grantee, Quota
from repro.errors import ReproError
from repro.kerberos.proxy_support import endorse, grant_via_credentials
from repro.services.printserver import PAGES, AllocateArgs


def main() -> None:
    realm = Realm(seed=b"pipeline-example")
    alice = realm.user("alice")
    formatter = realm.user("format-svc")
    spooler = realm.user("spool-svc")

    printer = realm.print_server("printer")
    alice.client_for(printer.principal).request(
        "allocate", args=AllocateArgs(pages=100).to_wire()
    )
    print("alice has 100 pages allocated at the printer\n")

    # Hop 1: alice -> formatter, capped at 10 pages, named delegate.
    creds = alice.kerberos.get_ticket(printer.principal)
    to_formatter = grant_via_credentials(
        creds,
        (
            Grantee(principals=(formatter.principal,)),
            Quota(currency=PAGES, limit=10),
        ),
        issued_at=realm.clock.now(),
    )
    # Hop 2: formatter -> spooler, tightened to 6 pages (it knows the
    # formatted size), signed with the formatter's own credentials so the
    # printer's audit log will name it (§3.4).
    to_spooler = endorse(
        to_formatter,
        formatter.kerberos.get_ticket(printer.principal),
        spooler.principal,
        (Quota(currency=PAGES, limit=6),),
        issued_at=realm.clock.now(),
        expires_at=realm.clock.now() + 600,
    )

    print("the chain the printer will verify (Fig. 4 notation):")
    print("  " + describe(to_spooler.proxy.certificates).replace("\n", "\n  "))

    # The spooler submits the job under alice's rights.
    out = spooler.client_for(printer.principal).request(
        "print", "thesis-final.ps", amounts={PAGES: 6}, proxy=to_spooler
    )
    job = printer.jobs[out["job_id"]]
    print(
        f"\nprinted {job['pages']} pages of {job['document']} — "
        f"owner={job['owner']}, submitted by {job['submitted_by']}"
    )
    print(f"alice's remaining allocation: {out['remaining']}")

    # The audit trail: verify once more explicitly and log it.
    log = AuditLog()
    wire = to_spooler.presentation(
        printer.principal, realm.clock.now(), "print", "thesis-final.ps",
        claimant=spooler.principal,
    )
    verified = printer.acceptor.accept(
        wire,
        RequestContext(
            server=printer.principal, operation="print",
            target="thesis-final.ps", claimant=spooler.principal,
            amounts={PAGES: 1},
        ),
    )
    record = log.record(
        realm.clock.now(), printer.principal, verified, "print",
        "thesis-final.ps",
    )
    print(f"\naudit record: {record.describe()}")

    # The tightened quota binds every holder downstream.
    try:
        spooler.client_for(printer.principal).request(
            "print", "extra.ps", amounts={PAGES: 7}, proxy=to_spooler
        )
    except ReproError as exc:
        print(f"\nspooler tries 7 pages -> refused: {exc}")

    # And the spooler cannot hand the task to someone alice never named.
    mallory = realm.user("mallory")
    try:
        mallory.client_for(printer.principal).request(
            "print", "junk.ps", amounts={PAGES: 1}, proxy=to_spooler
        )
    except ReproError as exc:
        print(f"mallory tries the spooler's proxy -> refused: {exc}")


if __name__ == "__main__":
    main()
