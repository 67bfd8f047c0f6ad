"""C7 — §7.9: propagation of restrictions through issuing servers.

"Authentication, authorization, and group servers accept proxies and issue
proxies.  If a proxy is issued based upon a proxy that includes
restrictions, those restrictions should be passed on."  We push authority
through a chain of authorization servers — each one delegating to the next,
as §3.5 describes ("the name of an authorization server to which the
function of authorizing remote users has been assigned") — and measure:

* monotonicity: the restriction multiset only grows along the chain;
* the limit-restriction optimization of §7.8/§7.9;
* per-hop issue cost as carried restrictions accumulate.
"""

import pytest

from conftest import fresh_realm, report
from repro.acl import AclEntry, SinglePrincipal
from repro.core.restrictions import (
    IssuedFor,
    LimitRestriction,
    Quota,
    is_narrower,
    propagate_restrictions,
)
from repro.encoding.identifiers import PrincipalId

DEPTHS = [1, 2, 4]


def build_chain_world(depth):
    """stage0 -> stage1 -> ... -> fs: each stage trusts the previous one.

    Stage 0 knows the *user*; each later stage's database holds only the
    previous stage's principal (authority has been delegated to it); the
    file server's ACL holds only the last stage.
    """
    realm = fresh_realm(b"c7-%d" % depth)
    user = realm.user("user")
    fs = realm.file_server("files")
    fs.put("doc", b"data")
    stages = [realm.authorization_server(f"authz{i}") for i in range(depth)]
    targets = stages[1:] + [fs]
    for i, azs in enumerate(stages):
        subject = (
            SinglePrincipal(user.principal)
            if i == 0
            else SinglePrincipal(stages[i - 1].principal)
        )
        azs.database_for(targets[i].principal).add(
            AclEntry(subject=subject, operations=("read",))
        )
    fs.acl.add(AclEntry(subject=SinglePrincipal(stages[-1].principal)))
    return realm, user, fs, stages, targets


def run_pipeline(user, fs, stages, targets):
    proxy = None
    for azs, target in zip(stages, targets):
        proxy = user.authorization_client(azs.principal).authorize(
            target.principal, ("read",), proxy=proxy
        )
    return proxy


@pytest.mark.parametrize("depth", DEPTHS)
def test_reissue_pipeline(benchmark, depth):
    realm, user, fs, stages, targets = build_chain_world(depth)

    def run():
        return run_pipeline(user, fs, stages, targets)

    proxy = benchmark.pedantic(run, rounds=3, iterations=1)
    out = user.client_for(fs.principal).request("read", "doc", proxy=proxy)
    assert out["data"] == b"data"


def test_c7_monotonicity_report(benchmark):
    """Restriction counts through the pipeline: they only grow."""
    realm, user, fs, stages, targets = build_chain_world(4)
    rows = []
    proxy = None
    previous = ()
    counts = []
    for hop, (azs, target) in enumerate(zip(stages, targets)):
        proxy = user.authorization_client(azs.principal).authorize(
            target.principal, ("read",), proxy=proxy
        )
        carried = tuple(
            r
            for cert in proxy.proxy.certificates
            for r in cert.restrictions
            if not isinstance(r, IssuedFor)  # rebound per hop by design
        )
        assert is_narrower(carried, previous)
        previous = carried
        counts.append(len(carried))
        rows.append((hop, azs.principal.name, len(carried)))
    report(
        "C7 / §7.9: restriction accumulation through re-issue hops",
        rows, ("hop", "issuer", "restrictions carried (excl. issued-for)"),
    )
    assert counts == sorted(counts)
    # The final proxy still works end to end.
    out = user.client_for(fs.principal).request("read", "doc", proxy=proxy)
    assert out["data"] == b"data"
    benchmark(lambda: None)


def test_c7_limit_restriction_drop(benchmark):
    """The §7.9 optimization, measured on wire size."""
    servers = [PrincipalId(f"s{i}") for i in range(8)]
    reachable = (servers[0],)
    incoming = tuple(
        LimitRestriction(
            servers=(servers[i],),
            restrictions=(Quota(currency=f"c{i}", limit=i + 1),),
        )
        for i in range(8)
    ) + (Quota(currency="global", limit=9),)

    def run():
        return propagate_restrictions(incoming, reachable_servers=reachable)

    propagated = benchmark(run)
    from repro.core.restrictions import restrictions_to_wire
    from repro.encoding.canonical import encode

    full = len(encode(restrictions_to_wire(incoming)))
    dropped = len(encode(restrictions_to_wire(propagated)))
    report(
        "C7 / §7.8-7.9: dropping unreachable limit-restrictions",
        [
            ("restrictions in", len(incoming)),
            ("restrictions out", len(propagated)),
            ("wire bytes in", full),
            ("wire bytes out", dropped),
        ],
        ("measure", "value"),
    )
    # Only the reachable limit-restriction and the global quota survive.
    assert len(propagated) == 2
    assert dropped < full
