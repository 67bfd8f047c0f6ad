#!/usr/bin/env python3
"""Call census: which functions under ``src/repro`` does anything execute?

Two command lists are run with a ``sys.setprofile`` hook injected into
every Python process they start (a generated ``sitecustomize.py`` on
``PYTHONPATH``, so subprocess children, the aio loop thread and pool
threads are counted too):

* **tests** -- the tier-1 suite and ``perf/tests``;
* **product** -- everything a user or CI can run that is not a test of
  one function: the commands of ``.github/workflows/ci.yml`` at their own
  sizes, the examples, the guided tour, every ``benchmarks/`` file and
  the traced ``perf/run.py`` smoke run.

Each function definition (found with ``ast``) is then in exactly one
class: *product* (some product command called it), *tests only*, or
*never executed*.  The script prints the last two as tables and exits 1
when a never-executed function is neither exempt by rule (abstract stubs,
``Protocol`` members, ``__repr__``) nor named, with a reason, in
``ALLOWLIST`` below.  Tests-only is a ratchet: it also exits 1 when a
tests-only function is neither in ``census_tests_only.txt`` (next to this
script, one ``file::qualname`` a line) nor in ``ALLOWLIST``, and it names
the listed functions that are no longer tests-only, so the list can only
shrink.

A command that exits non-zero fails the census too, and the report names
it: a function counted from a broken run proves nothing about a working
one.  The profiler slows everything severalfold, so a timing assertion
that only holds unprofiled belongs in its own CI job, not in this list.

    python tools/census.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TESTS_ONLY = Path(__file__).resolve().parent / "census_tests_only.txt"

# Never executed, and kept on purpose.  ``file::qualname`` -> reason.
_NULL_OBJECT = "null-object mirror of the live class: same surface, by contract"
ALLOWLIST: dict[str, str] = {
    "obs/telemetry.py::_NullSpan.attributes": _NULL_OBJECT,
    "obs/telemetry.py::_NullSpan.events": _NULL_OBJECT,
    "obs/telemetry.py::_NullSpan.__bool__": _NULL_OBJECT,
    "obs/telemetry.py::NullTelemetry.bind_clock": _NULL_OBJECT,
    "obs/telemetry.py::NullTelemetry.current_trace_id": _NULL_OBJECT,
    "obs/telemetry.py::NullTelemetry.capture_crypto": _NULL_OBJECT,
    "obs/telemetry.py::NullTelemetry.release_crypto": _NULL_OBJECT,
    "ledger/ledger.py::Problem.__new__":
        "built only when a consistency check finds a fault, which no "
        "passing product run does",
    "encoding/schema.py::union.declare.__hash__":
        "__eq__ is defined, so __hash__ must be for union members to stay "
        "hashable",
    "workloads/load.py::LoadScenario.check":
        "base-class default (no invariants); every shipped scenario overrides it",
}

# ``{out}`` is a scratch directory made for the run and removed after it.
TESTS = [
    "python -m pytest -q -p no:cacheprovider",
    "python -m pytest perf/tests -q -p no:cacheprovider",
]

_FIGS = "fig1 fig3 fig4 fig5 pk-verify"
_BENCH_SCRIPTS = (
    "c8_verify_cache c11_cold_verify c9_resilience trace_overhead "
    "usage_overhead c12_async_load"
).split()

PRODUCT = [
    # -- .github/workflows/ci.yml, job by job --------------------------------
    "python -m pytest -q -p no:cacheprovider benchmarks/bench_fig1_proxy.py"
    " --benchmark-disable-gc --benchmark-min-rounds=1 --benchmark-max-time=0.1"
    " --benchmark-warmup=off",
    "python -m pytest -q -p no:cacheprovider --benchmark-disable benchmarks/bench_*.py",
    "python -m repro trace fig3",
    *(f"python benchmarks/bench_{name}.py --smoke" for name in _BENCH_SCRIPTS),
    "python -m repro trace fig4",
    "python -m repro trace fig4 --no-verify-cache",
    "python -m repro chaos fig1 --seed 7 --drop-rate 0.2 --kill-primary",
    "python -m repro chaos fig3 --seed 7 --drop-rate 0.1 --outage 5:400",
    "python -m repro chaos fig4 --seed 7 --drop-rate 0.2",
    "python -m repro chaos fig5 --seed 7 --drop-rate 0.1 --response-drop-rate 0.15",
    "python -m repro chaos fig5-mix --seed 7 --units 200",
    "python -m repro chaos fig5-mix --seed 11 --units 200 --drop-rate 0.04"
    " --response-drop-rate 0.03",
    "python -m repro chaos fig4 --seed 7 --drop-rate 0.2 --no-retry",
    f"for fig in {_FIGS}; do"
    " python -m repro trace $fig --jsonl {out}/$fig.jsonl;"
    " python -m repro forensics --from {out}/$fig.jsonl --validate; done",
    "python -m repro trace fig5 --follow $(python -m repro trace fig5"
    " | grep -A3 'traces recorded' | grep -oE '[0-9a-f]{{32}}' | head -1)",
    "python -m repro usage fig1",
    "python -m repro usage fig3",
    "python -m repro usage fig4",
    "python -m repro usage fig5 --charge",
    "python -m repro usage pk-verify",
    "python -m repro profile --from {out}/fig5.jsonl",
    "python -m repro profile fig4 --weight count",
    "python -m repro load echo --principals 1000 --ops 1 --concurrency 256 --usage",
    "python -m repro load fig5 --principals 25 --ops 2 --concurrency 16 --usage",
    "python -m repro load fig3 --principals 8 --ops 2 --concurrency 8 --usage",
    "python -m repro load fig4 --mode sync --principals 10 --ops 2",
    "python -m repro load pk-verify --mode sync --principals 10 --ops 2",
    "python -m repro chaos fig4 --seed 7 --crash-restart files:5",
    "python -m repro chaos fig5 --seed 7 --crash-restart bank-a:6",
    "python -m repro chaos fig5 --seed 7 --crash-restart bank-b:4 --drop-rate 0.1",
    "python -m repro chaos fig4 --seed 7 --crash-restart files:3 --runtime aio",
    "python -m repro chaos fig1 --seed 7 --crash-restart files:6",
    "python -m repro chaos fig3 --seed 7 --crash-restart files:6 --runtime aio",
    "python -m repro chaos fig5-mix --seed 7 --units 150 --crash-restart bank-a:37"
    " --crash-restart bank-b:74 --crash-restart bank-c:111",
    "python3 perf/run.py --smoke --traced",
    # -- CLI features no CI job passes the flag for --------------------------
    "python -m repro profile fig4 --speedscope {out}/fig4.speedscope.json",
    "python -m repro profile fig4 --tree",
    "python -m repro forensics --from {out}/fig5.jsonl",
    "python -m repro usage fig5 --charge --json {out}/usage.json",
    "python -m repro load fig4 --mode sync --principals 4 --ops 1"
    " --json {out}/load.json",
    # -- the tour and the examples -------------------------------------------
    "python -m repro",
    "for example in examples/*.py; do python $example; done",
]

# Installed as ``sitecustomize`` in every child interpreter.  Only ``call``
# events matter; generators, coroutines and threads all raise them.
_HOOK = '''\
import atexit, os, sys, threading, time

_out = os.environ.get("CENSUS_OUT")
if _out:
    # Keyed by identity: code objects compare equal across files when name,
    # line and bytecode coincide.  Holding the object keeps its id unique.
    _seen = {}

    def _hook(frame, event, arg, _seen=_seen):
        if event == "call":
            code = frame.f_code
            _seen[id(code)] = code

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        rows = {
            "%s\\t%d" % (os.path.abspath(code.co_filename), code.co_firstlineno)
            for code in list(_seen.values())
        }
        name = "%d-%d.calls" % (os.getpid(), time.time_ns())
        with open(os.path.join(_out, name), "w") as handle:
            handle.write("\\n".join(sorted(rows)))

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''


class Function(NamedTuple):
    file: str  # relative to the source root
    line: int  # what ``co_firstlineno`` reports: the first decorator, or ``def``
    name: str  # dotted qualname
    lines: int
    exempt: bool  # abstract stub, Protocol member or __repr__

    @property
    def key(self) -> str:
        return f"{self.file}::{self.name}"


def _is_stub(node: ast.AST) -> bool:
    """Body is nothing but a docstring, ``...`` or ``raise NotImplementedError``."""
    for stmt in node.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def _names(nodes) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in nodes
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def function_table(src: Path) -> list[Function]:
    """Every ``def`` under ``src``, nested ones included, in file order."""
    table: list[Function] = []

    def visit(node: ast.AST, file: str, scope: tuple[str, ...], protocol: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                inner = "Protocol" in _names(child.bases)
                visit(child, file, scope + (child.name,), inner)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                table.append(
                    Function(
                        file,
                        first,
                        ".".join(scope + (child.name,)),
                        child.end_lineno - first + 1,
                        protocol
                        or child.name == "__repr__"
                        or "abstractmethod" in _names(child.decorator_list)
                        or _is_stub(child),
                    )
                )
                visit(child, file, scope + (child.name,), False)
            else:
                visit(child, file, scope, protocol)

    for path in sorted(src.rglob("*.py")):
        file = path.relative_to(src).as_posix()
        visit(ast.parse(path.read_text(), str(path)), file, (), False)
    return table


def run(
    commands: list[str], src: Path, cwd: Path, pythonpath: list[Path]
) -> tuple[set, list[str]]:
    """Run ``commands`` under the hook; return the ``(file, line)`` pairs
    called and an ``exit N: command`` line for each command that failed."""
    work = Path(tempfile.mkdtemp(prefix="census-"))
    try:
        (work / "hook").mkdir()
        (work / "hook" / "sitecustomize.py").write_text(_HOOK)
        (work / "calls").mkdir()
        (work / "out").mkdir()
        env = dict(os.environ)
        env["CENSUS_OUT"] = str(work / "calls")
        env["PYTHONPATH"] = os.pathsep.join(
            str(p) for p in [work / "hook", src.parent, *pythonpath]
        )
        failed = []
        for command in commands:
            done = subprocess.run(
                command.format(out=work / "out"),
                shell=True,
                cwd=cwd,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            if done.returncode != 0:
                failed.append(f"exit {done.returncode}: {command}")
        called = set()
        prefix = str(src) + os.sep
        for dump in (work / "calls").iterdir():
            for row in dump.read_text().splitlines():
                filename, _, line = row.rpartition("\t")
                if filename.startswith(prefix):
                    called.add((filename[len(prefix):].replace(os.sep, "/"), int(line)))
        return called, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _table(title: str, rows: list[Function], notes: dict[str, str]) -> list[str]:
    total = sum(f.lines for f in rows)
    out = [f"{title}: {len(rows)} functions / {total} lines"]
    for f in rows:
        note = notes.get(f.key)
        out.append(
            f"  {f.file}:{f.line}  {f.name}  ({f.lines})"
            + (f"  -- allowed: {note}" if note else "")
        )
    return out


def census(
    src: Path,
    tests: list[str],
    product: list[str],
    allowlist: dict[str, str],
    cwd: Path,
    pythonpath: list[Path] = (),
    known_tests_only: frozenset[str] | None = None,
) -> tuple[str, int]:
    """The report text and the exit code: 1 for a command that failed, an
    unexplained dead function or, given ``known_tests_only``, a tests-only
    one not in it."""
    src = src.resolve()  # what the hook's abspath() of co_filename yields
    table = function_table(src)
    by_tests, failed = run(tests, src, cwd, list(pythonpath))
    by_product, failed_product = run(product, src, cwd, list(pythonpath))
    failed += failed_product

    reached, tests_only, silent = [], [], []
    for f in table:
        site = (f.file, f.line)
        if site in by_product:
            reached.append(f)
        elif site in by_tests:
            tests_only.append(f)
        else:
            silent.append(f)
    never = [f for f in silent if not f.exempt]
    unexplained = [f for f in never if f.key not in allowlist]
    new_tests_only, droppable = [], []
    if known_tests_only is not None:
        new_tests_only = [
            f for f in tests_only
            if f.key not in known_tests_only and f.key not in allowlist
        ]
        droppable = sorted(known_tests_only - {f.key for f in tests_only})

    lines = [
        f"census of {src.name}: {len(table)} functions /"
        f" {sum(f.lines for f in table)} lines;"
        f" {len(reached)} reached by the product,"
        f" {len(silent) - len(never)} never-executed exempt by rule"
        " (abstract stub, Protocol member, __repr__)",
        "",
        *_table("never executed", never, allowlist),
        "",
        *_table("tests only", tests_only, {}),
        "",
    ]
    if unexplained:
        lines.append(
            f"FAIL: {len(unexplained)} never-executed functions are not in ALLOWLIST:"
            " delete them, or wire them into a test or a product command"
        )
        lines.extend(f"  {f.key}" for f in unexplained)
    else:
        lines.append("ok: every never-executed function is exempt or allowlisted")
    if new_tests_only:
        lines.append(
            f"FAIL: {len(new_tests_only)} tests-only functions are not in"
            f" {TESTS_ONLY.name}: wire them into a product command, delete"
            " them, or give them an ALLOWLIST reason"
        )
        lines.extend(f"  {f.key}" for f in new_tests_only)
    lines.extend(
        f"no longer tests-only, drop from {TESTS_ONLY.name}: {key}"
        for key in droppable
    )
    lines.extend(f"FAIL: command {line}" for line in failed)
    return "\n".join(lines), 1 if unexplained or new_tests_only or failed else 0


def main() -> int:
    known = frozenset(
        line.strip() for line in TESTS_ONLY.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    )
    report, code = census(
        ROOT / "src" / "repro", TESTS, PRODUCT, ALLOWLIST, ROOT,
        [ROOT / "benchmarks"], known,
    )
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
