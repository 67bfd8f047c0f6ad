"""What every bounded table did on the benchmark's figures, pinned.

Each scenario the benchmark drives runs on the sync runtime for a fixed
seed and op count; every table reachable from the deployment then reports
``(hits, misses, evictions, live entries)``.  ``KNOWN`` was generated
from the hand-rolled tables that :class:`~repro.bounded.BoundedStore`
replaced (their own counters where they kept them, the same reads counted
where they did not), so a difference here is a change in what the one
eviction and expiry rule keeps.  The ticket memo's and the claimant-key
marks' rows were pinned when those tables were added, and so was the
certificate memo's.
"""

from collections import deque

import pytest

from repro.core.certificate import DECODED
from repro.crypto import schnorr
from repro.crypto.signature import (
    SignatureCache,
    get_signature_cache,
    set_signature_cache,
)
from repro.testbed import Realm
from repro.workloads.load import SCENARIOS, LoadConfig, provision

FIGURES = ("fig1", "fig3", "fig4", "fig5", "pk-verify")
PRINCIPALS, OPS, SEED = 3, 4, 7

#: owner class -> the attributes holding its tables.
TABLES = {
    "SignatureCache": ("_entries",),
    "ChainPrefixCache": ("_entries",),
    "ResponseCache": ("_entries",),
    "ProxyCache": ("_entries",),
    "UsageMeter": ("_owners",),
    "Ledger": ("_dedupe",),
    "AuthenticatorCache": ("_seen",),
    "AcceptOnceRegistry": ("_seen", "_counts"),
    "EndServer": ("sessions", "_challenges"),
    "KerberosProxyAcceptor": ("_opened",),
    "ProxyVerifier": ("_seen_keys",),
}
_TABLE_ATTRS = {attr for attrs in TABLES.values() for attr in attrs}


def owners(*roots):
    """``(path, kind, owner)`` of every table owner reachable from
    ``roots`` (``(name, object)`` pairs), breadth first."""
    seen, found, queue = set(), [], deque(roots)
    while queue:
        path, obj = queue.popleft()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        kind = next(
            (c.__name__ for c in type(obj).__mro__ if c.__name__ in TABLES),
            None,
        )
        if kind is not None:
            found.append((path, kind, obj))
        if isinstance(obj, dict):
            queue.extend(
                (f"{path}[{k if isinstance(k, str) else i}]", v)
                for i, (k, v) in enumerate(obj.items())
            )
        elif isinstance(obj, (list, tuple)):
            queue.extend((f"{path}[{i}]", v) for i, v in enumerate(obj))
        elif type(obj).__module__.startswith("repro.") and hasattr(
            obj, "__dict__"
        ):
            queue.extend(
                (f"{path}.{attr}", value)
                for attr, value in vars(obj).items()
                if attr not in _TABLE_ATTRS
            )
    return found


#: Capacities small enough that the short run evicts, so that which entry
#: goes matters; the signature cache is built with ``SIGNATURE_CAP``.
CAPS = {"ChainPrefixCache": 2, "AuthenticatorCache": 4}
SIGNATURE_CAP, KEY_TABLE_CAP = 8, 2


def cap(kind, owner, n):
    for attr in TABLES[kind]:
        getattr(owner, attr).max_entries = n


def cap_key_tables(n):
    schnorr._KEY_TABLES.max_entries = n


def counts(path, kind, owner):
    return {
        f"{path}.{attr}": (store.hits, store.misses, store.evictions, len(store))
        for attr in TABLES[kind]
        for store in [getattr(owner, attr)]
    }


def store_counts(store):
    return store.hits, store.misses, store.evictions, len(store)


def key_table_counts():
    return store_counts(schnorr._KEY_TABLES)


def traffic(figure):
    """Every table's ``(hits, misses, evictions, live)`` after ``figure``'s
    load; the process-wide signature cache, key tables and certificate
    memo included."""
    config = LoadConfig(
        scenario=figure, principals=PRINCIPALS, ops=OPS, mode="sync",
        seed=SEED,
    )
    previous = get_signature_cache()
    cache = SignatureCache(max_entries=SIGNATURE_CAP)
    set_signature_cache(cache)
    schnorr.clear_key_tables()
    cap_key_tables(KEY_TABLE_CAP)
    before = key_table_counts()
    DECODED.clear()
    decoded = store_counts(DECODED)
    try:
        realm = Realm(seed=b"perf-%d" % SEED, runtime="sync")
        scenario = SCENARIOS[figure]()
        state, pstates = provision(scenario, realm, config)
        roots = (("realm", realm), ("state", state))
        for _, kind, owner in owners(*roots):
            if kind in CAPS:
                cap(kind, owner, CAPS[kind])
        for k in range(OPS):
            for i, pstate in enumerate(pstates):
                scenario.op(realm, config, state, pstate, i, k)
        found = {}
        for path, kind, owner in owners(*roots):
            found.update(counts(path, kind, owner))
        found.update(counts("signature-cache", "SignatureCache", cache))
        after = key_table_counts()
        found["key-tables"] = tuple(
            after[j] - before[j] for j in range(3)
        ) + (after[3],)
        after = store_counts(DECODED)
        found["certificate-memo"] = tuple(
            after[j] - decoded[j] for j in range(3)
        ) + (after[3],)
    finally:
        cap_key_tables(schnorr._MAX_KEY_TABLES)
        schnorr.clear_key_tables()
        set_signature_cache(previous)
    return found


KNOWN = {'fig1': {'state[fs].sessions': (0, 0, 0, 0),
          'state[fs]._challenges': (0, 0, 0, 0),
          'state[fs].ap._replay._seen': (0, 0, 0, 0),
          'state[fs].verifier.chain_cache._entries': (0, 12, 10, 2),
          'state[fs].verifier.accept_once._seen': (0, 0, 0, 0),
          'state[fs].verifier.accept_once._counts': (0, 0, 0, 0),
          'state[fs].verifier.authenticators._seen': (0, 0, 8, 4),
          'state[fs].verifier._seen_keys': (0, 0, 0, 0),
          # Every principal's proxy travels with the grantor's ticket.
          'state[fs].acceptor._opened': (11, 1, 0, 1),
          'signature-cache._entries': (9, 15, 7, 8),
          'key-tables': (0, 0, 0, 0),
          'certificate-memo': (9, 3, 0, 3)},
 'fig3': {'state[fs].sessions': (0, 0, 0, 3),
          'state[fs]._challenges': (0, 0, 0, 0),
          'state[authz].sessions': (0, 0, 0, 3),
          'state[authz]._challenges': (0, 0, 0, 0),
          'state[fs].ap._replay._seen': (0, 0, 0, 3),
          'state[fs].verifier.chain_cache._entries': (0, 12, 10, 2),
          'state[fs].verifier.accept_once._seen': (0, 0, 0, 0),
          'state[fs].verifier.accept_once._counts': (0, 0, 0, 0),
          'state[fs].verifier.authenticators._seen': (0, 0, 8, 4),
          'state[fs].verifier._seen_keys': (0, 0, 0, 0),
          'state[fs].acceptor._opened': (11, 1, 0, 1),
          'state[authz].ap._replay._seen': (0, 0, 0, 3),
          'state[authz].verifier.chain_cache._entries': (0, 0, 0, 0),
          'state[authz].verifier.accept_once._seen': (0, 0, 0, 0),
          'state[authz].verifier.accept_once._counts': (0, 0, 0, 0),
          'state[authz].verifier.authenticators._seen': (0, 0, 0, 0),
          'state[authz].verifier._seen_keys': (0, 0, 0, 0),
          'state[authz].acceptor._opened': (0, 0, 0, 0),
          'signature-cache._entries': (0, 24, 16, 8),
          'key-tables': (0, 0, 0, 0),
          # Each op's fresh certificate is decoded by its client and
          # found again when the file server decodes it (one process).
          'certificate-memo': (12, 12, 0, 12)},
 'fig4': {'state[fs].sessions': (0, 0, 0, 3),
          'state[fs]._challenges': (0, 0, 0, 0),
          'state[fs].ap._replay._seen': (0, 0, 0, 3),
          'state[fs].verifier.chain_cache._entries': (0, 24, 22, 2),
          'state[fs].verifier.accept_once._seen': (0, 0, 0, 0),
          'state[fs].verifier.accept_once._counts': (0, 0, 0, 0),
          'state[fs].verifier.authenticators._seen': (0, 0, 8, 4),
          'state[fs].verifier._seen_keys': (0, 0, 0, 0),
          'state[fs].acceptor._opened': (20, 4, 0, 4),
          'signature-cache._entries': (0, 36, 28, 8),
          # Fig. 4's endorsement binds a sealed symmetric key: no comb.
          'key-tables': (0, 0, 0, 0),
          'certificate-memo': (18, 6, 0, 6)},
 'fig5': {'state[bank_a].sessions': (0, 0, 0, 4),
          'state[bank_a]._challenges': (0, 0, 0, 0),
          'state[bank_b].sessions': (0, 0, 0, 3),
          'state[bank_b]._challenges': (0, 0, 0, 0),
          'state[bank_a].ledger._dedupe': (0, 0, 0, 0),
          'state[bank_b].ledger._dedupe': (0, 0, 0, 0),
          'state[bank_a].ap._replay._seen': (0, 0, 0, 4),
          'state[bank_a].verifier.chain_cache._entries': (0, 24, 22, 2),
          'state[bank_a].verifier.accept_once._seen': (0, 0, 0, 12),
          'state[bank_a].verifier.accept_once._counts': (0, 0, 0, 0),
          'state[bank_a].verifier.authenticators._seen': (0, 0, 0, 0),
          'state[bank_a].verifier._seen_keys': (0, 0, 0, 0),
          'state[bank_a].acceptor._opened': (21, 3, 0, 3),
          'state[bank_b].ap._replay._seen': (0, 0, 0, 3),
          'state[bank_b].verifier.chain_cache._entries': (0, 0, 0, 0),
          'state[bank_b].verifier.accept_once._seen': (0, 0, 0, 0),
          'state[bank_b].verifier.accept_once._counts': (0, 0, 0, 0),
          'state[bank_b].verifier.authenticators._seen': (0, 0, 0, 0),
          'state[bank_b].verifier._seen_keys': (0, 0, 0, 0),
          'state[bank_b].acceptor._opened': (0, 0, 0, 0),
          'signature-cache._entries': (0, 24, 16, 8),
          'key-tables': (0, 0, 0, 0),
          'certificate-memo': (24, 24, 0, 24)},
 'pk-verify': {'state[server]._envelope_replay._seen': (0, 0, 8, 4),
               'state[server].verifier.chain_cache._entries': (0, 12, 10, 2),
               'state[server].verifier.accept_once._seen': (0, 0, 0, 0),
               'state[server].verifier.accept_once._counts': (0, 0, 0, 0),
               'state[server].verifier.authenticators._seen': (0, 0, 8, 4),
               # Each claimant key is marked on its first request...
               'state[server].verifier._seen_keys': (9, 3, 0, 3),
               'signature-cache._entries': (0, 36, 28, 8),
               # ... and promoted on its second: with room for two
               # tables, three claimant keys and the grantor's take turns
               # (the chain cache, capped at two, never goes warm, so no
               # proxy key is promoted).
               'key-tables': (32, 25, 8, 2),
               'certificate-memo': (9, 3, 0, 3)}}


@pytest.mark.parametrize("figure", FIGURES)
def test_every_table_keeps_what_the_hand_rolled_one_kept(figure):
    assert traffic(figure) == KNOWN[figure]
