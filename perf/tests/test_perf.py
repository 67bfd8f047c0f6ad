"""Checks on the benchmark itself.  Not part of tier-1; run as

    PYTHONPATH=src python -m pytest perf/tests -q
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perf import compare, measure, run, trace, workloads
from perf.stats import percentiles, spread

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def in_process(out_dir):
    """A stand-in for ``run.spawn`` that measures in this process."""

    def spawn(workload, mode, seed, seconds, principals):
        return measure.measure(
            workload, seed, seconds, principals, mode, time.monotonic(),
            str(out_dir),
        )

    return spawn


def test_smoke_runs_every_workload_and_emits_the_declared_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke", "--traced",
         "--json", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    document = json.loads(out.read_text())
    declared = sorted(
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    )
    assert sorted(document["results"]) == sorted(
        w["name"] for w in SPEC["workloads"]
    )
    for name, metrics in document["results"].items():
        assert sorted(metrics) == declared, name
        assert document["failed"][name] == 0
        for metric in SPEC["end_to_end"]:
            assert metrics[metric["name"]]["median"] > 0, (name, metric)
    # every metric is printed by name with its unit
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"{metric['name']} " in done.stdout


def test_workload_table_matches_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert SPEC["paths"] == ["perf"]


def test_span_self_times_partition_the_op_wall_time(tmp_path):
    result = in_process(tmp_path)("authz-fig3", "trace", 1, 0.5, 20)
    spans = [json.loads(line) for line in open(result["trace_file"])]
    by_id = {s["id"]: s for s in spans}
    self_ns = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            self_ns[s["parent"]] -= s["end_ns"] - s["start_ns"]
    # per op, recomputed naively from the file: self times add up to the
    # root span exactly, and no span lies outside its parent
    per_op: dict = {}
    for s in spans:
        assert s["op"] >= 0, "a sync workload has no orphan spans"
        per_op[s["op"]] = per_op.get(s["op"], 0) + self_ns[s["id"]]
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"]
            assert s["end_ns"] <= parent["end_ns"]
            assert parent["op"] == s["op"]
    roots = {s["op"]: s for s in spans if s["name"] == trace.ROOT}
    assert len(roots) == result["ops"]
    for op, root in roots.items():
        assert per_op[op] == root["end_ns"] - root["start_ns"]
    # and the emitted rows are that same partition, per op, in ms
    layers = result["per_layer"]
    wall_ms_per_op = sum(
        r["end_ns"] - r["start_ns"] for r in roots.values()
    ) / 1e6 / result["ops"]
    rows = sum(v for k, v in layers.items() if k.endswith("ms_per_op"))
    unattributed = layers["harness.unattributed_share"] * wall_ms_per_op
    assert rows + unattributed == pytest.approx(wall_ms_per_op, rel=0.01)
    assert layers["harness.unattributed_share"] <= 0.25


def test_aio_handler_spans_join_the_clients_op(tmp_path):
    result = in_process(tmp_path)("pkverify-aio", "trace", 1, 0.5, 20)
    spans = [json.loads(line) for line in open(result["trace_file"])]
    by_id = {s["id"]: s for s in spans}
    handled = [s for s in spans if s["name"] == "services.handle"]
    assert handled
    for s in handled:
        chain = [s]
        while chain[-1]["parent"] >= 0:
            chain.append(by_id[chain[-1]["parent"]])
        assert [c["name"] for c in chain[-3:]] == [
            "net.aio_send", "services.pk_request", trace.ROOT,
        ]
    assert result["per_layer"]["net.aio.wait_ms_per_op"] > 0


def test_exact_percentiles():
    samples = [float(v) for v in range(200, 0, -1)]
    assert percentiles(samples) == pytest.approx(
        {"p50": 100.5, "p95": 190.95, "p99": 198.99}
    )
    cuts = statistics.quantiles(samples, n=100)
    assert percentiles(samples)["p95"] == cuts[94]
    assert spread([9.0, 10.0, 11.0, 10.0, 10.0]) == pytest.approx(0.1)


def test_seed_changes_the_op_stream_but_not_the_message_count(tmp_path, monkeypatch):
    drawn: list = []
    original = workloads.TransferWal.op

    def recording(self, realm, config, state, pstate, i, k):
        drawn.append(k)
        return original(self, realm, config, state, pstate, i, k)

    monkeypatch.setattr(workloads.TransferWal, "op", recording)
    streams, messages = [], []
    for seed in (1, 1, 2):
        drawn.clear()
        result = in_process(tmp_path)("transfer-wal", "run", seed, 0.3, 8)
        assert result["failed"] == 0 and not result["problems"]
        streams.append(drawn[:200])
        messages.append(result["end_to_end"]["wire_msgs_per_op"])
    assert streams[0] == streams[1], "same seed, same inputs"
    assert streams[0] != streams[2]
    assert messages[0] == messages[1] == messages[2] == 2.0


def test_a_broken_reply_fails_the_run(tmp_path, monkeypatch, capsys):
    from repro.services.accounting import AccountingServer

    original = AccountingServer._op_transfer
    calls = []

    def lying(self, request):
        reply = original(self, request)
        calls.append(1)
        if len(calls) % 10 == 0:
            reply["from_balance"] += 1
        return reply

    monkeypatch.setattr(AccountingServer, "_op_transfer", lying)
    monkeypatch.setattr(run, "spawn", in_process(tmp_path))
    code = run.main(
        ["--workload", "transfer-wal", "--seconds", "0.3", "--smoke"]
    )
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert final["correct"] is False
    assert 0 < final["failed"] < final["attempted"]


def test_tracer_restores_every_rebound_callable():
    from repro.crypto import schnorr
    from repro.encoding import canonical
    from repro.kerberos import ticket
    from repro.net.network import Network

    def current():
        return {
            "sign": schnorr.sign,
            "encode": canonical.encode,
            "importer": ticket.encode,
            "send": vars(Network)["send"],
            "seal": vars(ticket.Authenticator)["seal"],
        }

    before = current()
    with trace.Tracer() as tracer:
        inside = current()
        assert all(inside[k] is not before[k] for k in before)
        assert isinstance(inside["seal"], classmethod)
        # installed but idle, the wrappers pass straight through
        assert canonical.encode([1, "a", {"k": b"v"}]) == before["encode"](
            [1, "a", {"k": b"v"}]
        )
        tracer.enabled = True
        canonical.encode([[1, 2], [3, [4]]])
        tracer.enabled = False
        names = [span[1] for span in tracer.spans()]
        assert names == ["encoding.encode"], "outermost entry only"
    assert all(current()[k] is before[k] for k in before)


def test_a_renamed_boundary_fails_loudly(monkeypatch):
    from repro.crypto import schnorr

    bogus = trace.Boundary("schnorr.sign", "repro.crypto.schnorr:sign_v2", "x")
    monkeypatch.setattr(trace, "BOUNDARIES", trace.BOUNDARIES[:3] + (bogus,))
    original = schnorr.verify
    with pytest.raises(trace.TraceError, match="sign_v2"):
        with trace.Tracer():
            pass
    assert schnorr.verify is original, "a failed install leaves nothing rebound"


def test_compare_applies_each_metrics_own_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.judge(steady, [v * 1.05 for v in steady], "lower", 0.10)[0] == "ok"
    assert compare.judge(steady, [v * 1.2 for v in steady], "lower", 0.10)[0] == "worse"
    assert compare.judge(steady, [v * 0.8 for v in steady], "higher", 0.10)[0] == "worse"
    noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
    assert compare.judge(noisy, noisy, "lower", 0.10)[0] == "unresolved"
    # wide spread, but every run of B reads better than every run of A
    assert compare.judge(noisy, [v / 2 for v in noisy], "lower", 0.10)[0] == "ok"


@pytest.mark.xfail(
    strict=True,
    reason="src bug this benchmark found: a compaction fired by the "
    "accept-once append inside a debit RPC snapshots the ledger's "
    "applied-but-uncommitted postings, and recovery applies them twice.  "
    "When this starts passing, set DurableFig5.SNAPSHOT_EVERY back to 512.",
)
def test_fig5_recovers_to_live_balances_with_automatic_compaction(tmp_path, monkeypatch):
    # bank-a logs 10 records in set-up, then audit/accept/posting per op:
    # every 63rd append is an ``accept``.
    monkeypatch.setattr(workloads.DurableFig5, "SNAPSHOT_EVERY", 63)
    bench = workloads.build(
        workloads.WORKLOADS["checks-fig5"], 1, 4, str(tmp_path)
    )
    for k in range(6):
        for i, pstate in enumerate(bench.pstates):
            bench.scenario.op(
                bench.realm, bench.config, bench.state, pstate, i, k
            )
    assert bench.state["bank_a"].durability.compactions == 1
    problems, _, _ = workloads.restart_parity(bench)
    assert problems == []
