#!/usr/bin/env python3
"""The repo's one benchmark.  See ``perf/README.md``.

Driver contract (``BENCHMARK.json``)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a metric table and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``).

Without ``--workload`` it runs all five workloads (add ``--traced`` for the
per-layer run of each, ``--repeat N`` for N invocations on seeds
``seed..seed+N-1``, ``--json OUT`` to keep the result set for
``perf/compare.py``, ``--smoke`` for a seconds-long sanity pass).

Every workload runs in its own fresh subprocess; the exit code is non-zero
if any workload's outputs were wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perf" / "out"

#: Set-ups per ``--trace 0`` invocation; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Share of ``--seconds`` a ``--trace 1`` invocation spends on its
#: untraced reference run (the rest is the traced window).
REFERENCE_SHARE = 0.3


def _use_repo_imports() -> None:
    """Import ``repro`` from this checkout's ``src/`` and ``perf`` as a
    package (``perf/trace.py`` must not shadow the stdlib ``trace``)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perf: {ROOT / 'src' / 'repro'} not found; nothing to measure")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Child: one workload, this process
# ---------------------------------------------------------------------------


def child(args) -> int:
    from perf.measure import measure

    result = measure(
        args.workload, args.seed, args.seconds, args.principals,
        args.child, args.t_spawn, str(OUT_DIR),
    )
    print(json.dumps(result))
    return 0


def spawn(workload: str, mode: str, seed: int, seconds: float, principals: int) -> dict:
    """Run one child to completion and return its result object."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", mode, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--principals", str(principals),
        "--t-spawn", repr(time.monotonic()),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(
            f"perf: {workload} ({mode}) child exited with {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Parent: one invocation of one workload
# ---------------------------------------------------------------------------


def principals_for(workload: str, smoke: bool) -> int:
    from perf.workloads import WORKLOADS

    full = WORKLOADS[workload].principals
    return max(4, full // 5) if smoke else full


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """``--trace 0``: the end-to-end metrics of one workload."""
    principals = principals_for(workload, smoke)
    setups = [
        spawn(workload, "setup", seed, 0.0, principals)["setup_s"]
        for _ in range(0 if smoke else SETUP_REPEATS - 1)
    ]
    result = spawn(workload, "run", seed, seconds, principals)
    setups.append(result["setup_s"])
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["metrics"] = result["end_to_end"]
    return result


def run_traced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """``--trace 1``: the per-layer metrics of one workload.

    An untraced reference run supplies what tracing would distort (cold
    and p99 latency) and the base of ``harness.trace_overhead_share``.
    """
    principals = principals_for(workload, smoke)
    reference = spawn(
        workload, "run", seed, seconds * REFERENCE_SHARE, principals
    )
    result = spawn(
        workload, "trace", seed, seconds * (1 - REFERENCE_SHARE), principals
    )
    untraced_rate = reference["window_ops_per_s"]
    traced_rate = result["window_ops_per_s"]
    result["metrics"] = {
        **result["per_layer"],
        "harness.trace_overhead_share": untraced_rate / traced_rate - 1.0,
        **{f"harness.{k}": v for k, v in reference["harness"].items()},
    }
    for key in ("failed", "attempted"):
        result[key] += reference[key]
    result["problems"] = reference["problems"] + result["problems"]
    return result


def finish(result: dict, declared: list) -> dict:
    """Check the emitted names against ``BENCHMARK.json``; attach units."""
    names = [metric["name"] for metric in declared]
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        raise SystemExit(
            f"perf: metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    units = {metric["name"]: metric["unit"] for metric in declared}
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]}
            for name in names
        },
    }


def print_table(workload: str, result: dict, final: dict) -> None:
    failed_share = final["failed"] / final["attempted"]
    print(
        f"== {workload}  seed={result['seed']}  principals={result['principals']}"
        f"  timed ops={result['ops']}"
        f"  whole window={result['window_ops_per_s']:.1f} ops/s"
        f"  failed_share={failed_share:.6f}"
        f"  {'ok' if final['correct'] else 'INCORRECT'}"
    )
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for name, metric in final["metrics"].items():
        print(
            f"   {name:<44} {metric['value']:>16.6f} {metric['unit']}"
        )
    if "trace_file" in result:
        print(f"   {result['trace_spans']} spans -> {result['trace_file']}")


# ---------------------------------------------------------------------------
# Result sets (several invocations of every workload)
# ---------------------------------------------------------------------------


def commit_hash() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def result_set(args, spec: dict) -> int:
    """All workloads, ``--repeat`` invocations each; optional ``--json``."""
    from perf.stats import summary

    workloads = [w["name"] for w in spec["workloads"]]
    kinds = [("end_to_end", run_untraced)]
    if args.traced:
        kinds.append(("per_layer", run_traced))
    results: dict = {name: {} for name in workloads}
    failed = {name: 0 for name in workloads}
    attempted = {name: 0 for name in workloads}
    incorrect = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for name in workloads:
            for kind, runner in kinds:
                raw = runner(name, seed, args.seconds, args.smoke)
                final = finish(raw, spec[kind])
                print_table(name, raw, final)
                if not final["correct"]:
                    incorrect.append((name, seed))
                failed[name] += final["failed"]
                attempted[name] += final["attempted"]
                for metric, value in final["metrics"].items():
                    entry = results[name].setdefault(
                        metric, {"unit": value["unit"], "values": []}
                    )
                    entry["values"].append(value["value"])
    for name in workloads:
        for entry in results[name].values():
            entry.update(summary(entry["values"]))
    if args.json:
        document = {
            "meta": {
                "commit": commit_hash(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "seconds": args.seconds,
                "seeds": [args.seed + r for r in range(args.repeat)],
                "smoke": args.smoke,
            },
            "attempted": attempted,
            "failed": failed,
            "results": results,
        }
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    for name, seed in incorrect:
        print(f"perf: {name} seed {seed}: outputs incorrect", file=sys.stderr)
    return 1 if incorrect else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (driver contract); default all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: also do each workload's traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="short window, one set-up, a fifth of the principals")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--json", help="write the result set here")
    parser.add_argument("--child", choices=("setup", "run", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--principals", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--t-spawn", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_repo_imports()
    if args.child:
        return child(args)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(spec["run_seconds"])
    if args.workload is None:
        return result_set(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    runner, declared = (
        (run_traced, spec["per_layer"]) if args.trace
        else (run_untraced, spec["end_to_end"])
    )
    raw = runner(args.workload, args.seed, args.seconds, args.smoke)
    final = finish(raw, declared)
    print_table(args.workload, raw, final)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
