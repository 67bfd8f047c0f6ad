"""Write the small WAL + snapshot directory ``durable_store/`` holds.

    PYTHONPATH=src python tests/data/make_durable_store.py OUT_DIR

``OUT_DIR/bank-a`` is the Fig. 5 payor bank after four check clearings,
with one forced compaction between the second and the third;
``OUT_DIR/files`` is a file server with two owner grants, seeded files, a
session write and delete, and two bearer-proxy reads (audit records, one
accept-once and one counted entry).  ``OUT_DIR/expected.json`` is the
live state a recovery of each must rebuild.  Response-cache keys differ
from run to run, so a rerun writes different bytes with the same meaning.
"""
import json
import os
import sys

from repro.core.restrictions import AcceptOnce, IssuedFor, UseLimit
from repro.durability import DurabilityStore
from repro.kerberos.proxy_support import grant_via_credentials
from repro.testbed import Realm
from repro.workloads.load import Fig5Scenario, LoadConfig

out = sys.argv[1]

realm = Realm(seed=b"durable-fixture", resilience=True)
scenario = Fig5Scenario()
bank_store = DurabilityStore(os.path.join(out, "bank-a"), snapshot_every=0)
scenario.stores = {"bank-a": bank_store}
config = LoadConfig(scenario="fig5", principals=2, ops=4, mode="sync")
state = scenario.setup(realm, config)
principals = [scenario.principal(realm, config, state, i) for i in range(2)]
for k in range(4):
    if k == 2:
        bank_store.compact()
    for i, pstate in enumerate(principals):
        scenario.op(realm, config, state, pstate, i, k)
bank = state["bank_a"]

alice, bob = realm.user("alice"), realm.user("bob")
files = realm.file_server(
    "files", durability=DurabilityStore(os.path.join(out, "files"))
)
files.grant_owner(alice.principal)
files.grant_owner(bob.principal, "shared/*")
for name in ("doc", "other", "gone"):
    files.put(name, b"contents of " + name.encode())
client = alice.client_for(files.principal)
client.request("write", "notes", args={"data": b"hello"}, amounts={"bytes": 5})
client.request("delete", "gone")
creds = alice.kerberos.get_ticket(files.principal)
for restrictions in (
    (AcceptOnce(identifier="fixture-1"), IssuedFor(servers=(files.principal,))),
    (UseLimit(identifier="fixture-2", limit=3),),
):
    proxy = grant_via_credentials(creds, restrictions, realm.clock.now())
    bob.client_for(files.principal).request("read", "doc", proxy=proxy)

expected = {
    "bank-a": {
        "balances": {n: dict(a.balances) for n, a in bank.accounts.items()},
        "audit_records": len(bank.audit),
        "accept_once": bank.verifier.accept_once.capture_state(),
        "responses": len(bank.dedupe.capture_state()["entries"]),
    },
    "files": {
        "files": {p: d.decode() for p, d in files.files.items()},
        "owners": [
            [str(e.subject.principal), list(e.targets)]
            for e in files.acl.entries
        ],
        "audit_records": len(files.audit),
        "accept_once": files.verifier.accept_once.capture_state(),
        "responses": len(files.dedupe.capture_state()["entries"]),
    },
}
with open(os.path.join(out, "expected.json"), "w") as handle:
    json.dump(expected, handle, indent=1, sort_keys=True)
    handle.write("\n")
