"""One workload in one process: set up, warm up, drive a timed window, check.

This is the body of the subprocess ``perf/run.py`` spawns.  ``setup_s`` is
counted from the parent's spawn timestamp (``time.monotonic`` is one
system-wide clock on Linux) to the first timed op, so interpreter start,
``import repro``, table builds, keygen, provisioning and the warm-up round
are all inside it.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.net import aio

from perf import trace
from perf.stats import percentiles
from perf.workloads import WORKLOADS, Bench, build, durable_stores, restart_parity


#: Sub-windows of the timed window.  Neighbours on the shared sandbox only
#: ever slow a sub-window down, in bursts of seconds, so the timing metrics
#: are the quiet-side quartile over sub-windows, not the whole-window mean.
CHUNKS = 10


class Session:
    """The closed-loop clients of one provisioned workload."""

    def __init__(self, bench: Bench, seed: int, tracer: Optional[trace.Tracer]) -> None:
        self.bench = bench
        self.clients = bench.workload.clients
        op = bench.scenario.op
        self._op = tracer.root(op) if tracer is not None else op
        # One op stream per client thread, a function of --seed alone.
        self._streams = [
            random.Random(f"{seed}:{client}") for client in range(self.clients)
        ]
        #: (end time, latency) of every completed op, warm-up then window.
        self.cold: List[Tuple[float, float]] = []
        self.timed: List[Tuple[float, float]] = []
        #: (time, process CPU time) as client 0 crossed each sub-window
        #: boundary — always just after one of its ops completed.
        self.marks: List[Tuple[float, float]] = []
        self.failed = 0

    def _phase(self, fn, *args) -> list:
        """Run ``fn(client, *args)`` on every client, one thread each."""
        if self.clients == 1:
            return [fn(0, *args)]
        with ThreadPoolExecutor(self.clients, "perf-client") as pool:
            futures = [pool.submit(fn, c, *args) for c in range(self.clients)]
            return [future.result() for future in futures]

    def _run_op(self, client: int, i: int, sink: list) -> int:
        """One op for principal ``i``; returns 1 if it failed."""
        bench = self.bench
        k = self._streams[client].getrandbits(30)
        start = time.perf_counter()
        try:
            self._op(bench.realm, bench.config, bench.state, bench.pstates[i], i, k)
        except ReproError:
            return 1
        end = time.perf_counter()
        sink.append((end, end - start))
        return 0

    def _mine(self, client: int) -> range:
        return range(client, len(self.bench.pstates), self.clients)

    def _warm(self, client: int):
        sink: list = []
        failed = sum(self._run_op(client, i, sink) for i in self._mine(client))
        return sink, failed

    def _drive(self, client: int, start: float, chunk: float):
        sink: list = []
        failed = 0
        mine = self._mine(client)
        crossing = 1
        while True:
            for i in mine:
                now = time.perf_counter()
                if now >= start + crossing * chunk:
                    if client == 0:
                        self.marks.append((now, time.process_time()))
                    crossing = int((now - start) / chunk) + 1
                    if crossing > CHUNKS:
                        return sink, failed
                failed += self._run_op(client, i, sink)

    def warm_up(self) -> None:
        """Each principal's first op: fills process-wide caches and lazy
        key tables, as a user's steady state has them."""
        for sink, failed in self._phase(self._warm):
            self.cold.extend(sink)
            self.failed += failed

    def window(self, seconds: float) -> None:
        start = time.perf_counter()
        self.marks.append((start, time.process_time()))
        for sink, failed in self._phase(self._drive, start, seconds / CHUNKS):
            self.timed.extend(sink)
            self.failed += failed
        self.timed.sort()

    def chunk_stats(self) -> Dict[str, List[float]]:
        """Per sub-window: ops/s, median latency, CPU seconds per op."""
        ends = [end for end, _ in self.timed]
        stats: Dict[str, List[float]] = {"rate": [], "p50": [], "cpu": []}
        for (t_a, cpu_a), (t_b, cpu_b) in zip(self.marks, self.marks[1:]):
            lo, hi = bisect_right(ends, t_a), bisect_right(ends, t_b)
            if hi == lo:
                continue
            stats["rate"].append((hi - lo) / (t_b - t_a))
            stats["p50"].append(
                statistics.median(lat for _, lat in self.timed[lo:hi])
            )
            stats["cpu"].append((cpu_b - cpu_a) / (hi - lo))
        return stats


def _counters(bench: Bench) -> Dict[str, float]:
    network = bench.realm.network
    stats = getattr(network, "stats", None)
    stores = durable_stores(bench)
    return {
        "wall": time.perf_counter(),
        "cpu": time.process_time(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "messages": network.metrics.messages,
        "bytes": network.metrics.bytes,
        "batches": stats.batches if stats else 0,
        "batched_messages": stats.batched_messages if stats else 0,
        "prefetched_checks": stats.prefetched_checks if stats else 0,
        "appends": sum(s.appends for s in stores),
        "compactions": sum(s.compactions for s in stores),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    principals: int,
    mode: str,
    t_spawn: float,
    out_dir: str,
) -> dict:
    """Run workload ``name``; ``mode`` is ``setup``, ``run`` or ``trace``."""
    os.makedirs(out_dir, exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix="wal-", dir=out_dir)
    # The tracer goes in before the realm exists: services register bound
    # methods at construction.
    tracing = trace.Tracer() if mode == "trace" else contextlib.nullcontext()
    try:
        with tracing as tracer:
            result = _measure(
                name, seed, seconds, principals, mode, t_spawn, data_dir, tracer
            )
            if tracer is not None:
                path = os.path.join(out_dir, f"trace-{name}.jsonl")
                result["trace_file"] = path
                result["trace_spans"] = tracer.write_jsonl(path)
            return result
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _measure(name, seed, seconds, principals, mode, t_spawn, data_dir, tracer) -> dict:
    workload = WORKLOADS[name]
    bench = build(workload, seed, principals, data_dir)
    network = bench.realm.network
    session = Session(bench, seed, tracer)
    marks: Dict[str, object] = {}

    def client_side() -> None:
        session.warm_up()
        marks["setup_s"] = time.monotonic() - t_spawn
        if mode == "setup":
            return
        if tracer is not None:
            tracer.enabled = True
        marks["before"] = _counters(bench)
        session.window(seconds)
        marks["after"] = _counters(bench)
        if tracer is not None:
            tracer.enabled = False

    if workload.runtime == "aio":
        for endpoint, prefetcher in bench.scenario.prefetchers(bench.state):
            if tracer is not None:
                prefetcher = tracer.wrap(trace.PREFETCH, prefetcher)
            network.set_prefetcher(endpoint, prefetcher)
        aio.drive(network, client_side)
    else:
        client_side()

    result: dict = {
        "workload": name,
        "seed": seed,
        "principals": principals,
        "setup_s": marks["setup_s"],
        "failed": session.failed,
        "attempted": len(session.cold) + len(session.timed) + session.failed,
    }
    if mode == "setup":
        return result

    before, after = marks["before"], marks["after"]
    delta = {key: after[key] - before[key] for key in after}
    ops = len(session.timed)
    chunks = session.chunk_stats()
    if len(chunks["rate"]) < 2:
        raise RuntimeError(
            f"{name}: only {ops} ops completed in {seconds}s; window too short"
        )
    quantiles = percentiles([latency for _, latency in session.timed])
    ops_ok = ops + len(session.cold)
    problems = list(
        bench.scenario.check(bench.realm, bench.config, bench.state, ops_ok)
    )
    restart_problems, recover_s, recover_records = restart_parity(bench)
    problems.extend(restart_problems)

    def quiet(values: List[float], side: int) -> float:
        return statistics.quantiles(values, n=4)[side]

    result["ops"] = ops
    result["window_ops_per_s"] = ops / delta["wall"]
    result["problems"] = problems
    result["end_to_end"] = {
        "ops_per_s": quiet(chunks["rate"], 2),
        "op_p50_ms": quiet(chunks["p50"], 0) * 1e3,
        "cpu_ms_per_op": quiet(chunks["cpu"], 0) * 1e3,
        "wire_msgs_per_op": delta["messages"] / ops,
        "wire_bytes_per_op": delta["bytes"] / ops,
        "setup_s": marks["setup_s"],
        # The high-water mark as the window opens: a provisioned, warmed
        # realm.  What the window adds depends on how many ops it fits, so
        # it is reported per op (harness.rss_growth_kb_per_op), not gated.
        "peak_rss_mb": before["rss_kb"] / 1024.0,
    }
    # Whole-window, exact, and too exposed to the neighbours to gate.
    result["harness"] = {
        "cold_op_p50_ms": percentiles(
            [latency for _, latency in session.cold]
        )["p50"] * 1e3,
        "op_p95_ms": quantiles["p95"] * 1e3,
        "op_p99_ms": quantiles["p99"] * 1e3,
        "rss_growth_kb_per_op": delta["rss_kb"] / ops,
    }
    if tracer is not None:
        stats = getattr(network, "stats", None)
        result["per_layer"] = layer_metrics(
            tracer.aggregate(),
            ops,
            delta,
            max_queue_depth=stats.max_queue_depth if stats else 0,
            recover_s=recover_s,
            recover_records=recover_records,
        )
    return result


def layer_metrics(
    agg: trace.Aggregate,
    ops: int,
    delta: Dict[str, float],
    max_queue_depth: int,
    recover_s: float,
    recover_records: int,
) -> Dict[str, float]:
    """The per-layer table: every ``*_ms_per_op`` is self time, so the
    rows plus the root's unattributed share add up to the op's wall time."""
    rows = agg.self_ms_by_row()

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        row: ms / ops for row, ms in rows.items() if row.endswith("ms_per_op")
    }
    verify_batches = agg.count("schnorr.verify_batch")
    metrics.update({
        "crypto.schnorr.sign_calls_per_op": agg.count("schnorr.sign") / ops,
        "crypto.schnorr.verify_calls_per_op": agg.count("schnorr.verify") / ops,
        "crypto.schnorr.keygen_calls_per_op": agg.count("schnorr.keygen") / ops,
        "crypto.schnorr.verify_batch_calls_per_op": verify_batches / ops,
        "crypto.schnorr.batch_size_mean": ratio(
            agg.value("schnorr.verify_batch"), verify_batches
        ),
        "crypto.hmac.calls_per_op":
            agg.value("signature.sign", "signature.verify") / ops,
        "crypto.sigcache.hit_ratio": ratio(
            agg.value("sigcache.lookup"), agg.count("sigcache.lookup")
        ),
        "crypto.symmetric.calls_per_op":
            agg.count("symmetric.seal", "symmetric.unseal") / ops,
        "crypto.symmetric.bytes_per_op":
            agg.value("symmetric.seal", "symmetric.unseal") / ops,
        "encoding.encode_calls_per_op": agg.count("encoding.encode") / ops,
        "encoding.encode_bytes_per_op": agg.value("encoding.encode") / ops,
        "encoding.decode_calls_per_op": agg.count("encoding.decode") / ops,
        "core.verify_calls_per_op": agg.count("core.verify") / ops,
        "core.vcache.chain_hit_ratio": ratio(
            agg.value("vcache.get"), agg.count("vcache.get")
        ),
        "kerberos.calls_per_op": agg.count(*(
            span for span, row in trace.ROW_OF.items()
            if row == "kerberos.ms_per_op"
        )) / ops,
        "net.aio.batches_per_op": delta["batches"] / ops,
        "net.aio.batch_size_mean": ratio(
            delta["batched_messages"], delta["batches"]
        ),
        "net.aio.max_queue_depth": max_queue_depth,
        "services.prefetch_checks_per_op": delta["prefetched_checks"] / ops,
        "ledger.postings_per_op": agg.count("ledger.post") / ops,
        "durability.appends_per_op": delta["appends"] / ops,
        "durability.wal_bytes_per_op": agg.value_under.get(
            ("wal.frame", "wal.append_record"), 0
        ) / ops,
        # A compaction is a foreground stall a median hides: report the
        # longest one whole (children included), not as self time.
        "durability.compact_max_ms": agg.max_ms("durability.compact"),
        "durability.compactions": delta["compactions"],
        "durability.recover_s": recover_s,
        "durability.recover_records": recover_records,
        "harness.unattributed_share": ratio(
            rows["harness.unattributed"], agg.inclusive_ms(trace.ROOT)
        ),
    })
    return metrics
