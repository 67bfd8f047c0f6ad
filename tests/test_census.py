"""tools/census.py classifies a throw-away package correctly."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "census", Path(__file__).resolve().parent.parent / "tools" / "census.py"
)
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)

PACKAGE = '''\
import abc

def product(): return 1
def tested(): return 2
def dead(): return 3
def on_thread(): return 4
def in_child(): return 5

class Base(abc.ABC):
    @abc.abstractmethod
    def stub(self): ...
'''

# Same name, line and bytecode in two files: the code objects compare equal.
TWIN = "def twin(): return 6\n"

PRODUCT = '''\
import subprocess, sys, threading, pkg, pkg.one, pkg.two
pkg.product()
pkg.one.twin()
pkg.two.twin()
worker = threading.Thread(target=pkg.on_thread)
worker.start()
worker.join()
subprocess.run([sys.executable, "-c", "import pkg; pkg.in_child()"], check=True)
'''


def test_every_function_gets_the_right_verdict(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(PACKAGE)
    (tmp_path / "pkg" / "one.py").write_text(TWIN)
    (tmp_path / "pkg" / "two.py").write_text(TWIN)
    (tmp_path / "product.py").write_text(PRODUCT)
    (tmp_path / "tests.py").write_text("import pkg\npkg.tested()\n")

    def run(allowlist):
        return census.census(
            tmp_path / "pkg", ["python tests.py"], ["python product.py"],
            allowlist, tmp_path,
        )

    report, code = run({})
    assert code == 1
    assert "8 functions" in report and "5 reached by the product" in report
    assert "1 never-executed exempt by rule" in report  # Base.stub
    never, tests_only = report.split("tests only:")
    assert "  __init__.py:5  dead  (1)" in never
    assert "  __init__.py:4  tested  (1)" in tests_only
    for reached in ("product", "on_thread", "in_child", "stub", "twin"):
        assert f"  {reached}  " not in report
    assert "FAIL: 1 never-executed" in report

    allowed, code = run({"__init__.py::dead": "kept for the test"})
    assert code == 0
    assert "dead  (1)  -- allowed: kept for the test" in allowed
    assert run({}) == (report, 1)  # byte-identical on a second run


def test_tests_only_is_a_ratchet(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(
        "def product(): return 1\ndef tested(): return 2\n"
        "def listed(): return 3\n"
    )
    (tmp_path / "product.py").write_text("import pkg\npkg.product()\n")
    (tmp_path / "tests.py").write_text("import pkg\npkg.tested()\n")

    def run(known, allowlist={}):
        return census.census(
            tmp_path / "pkg", ["python tests.py"], ["python product.py"],
            allowlist, tmp_path, known_tests_only=frozenset(known),
        )

    report, code = run({"__init__.py::listed"})
    assert code == 1
    assert "FAIL: 1 tests-only functions are not in" in report
    assert "\n  __init__.py::tested" in report.split("FAIL:")[-1]
    # ``listed`` is never executed now, so the census says it can go.
    assert "drop from census_tests_only.txt: __init__.py::listed" in report

    report, code = run({"__init__.py::tested"})
    assert code == 1  # ``listed`` is dead and not allowlisted
    assert "tests-only functions are not in" not in report

    allowed = {"__init__.py::listed": "kept for the test"}
    assert run({"__init__.py::tested"}, allowed)[1] == 0
    assert run(set(), {**allowed, "__init__.py::tested": "reason"})[1] == 0


def test_a_failed_command_fails_the_census(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("def product(): return 1\n")
    (tmp_path / "product.py").write_text("import pkg\npkg.product()\n")
    broken = "python -c 'raise SystemExit(3)'"

    report, code = census.census(
        tmp_path / "pkg", ["python -c pass"], ["python product.py", broken],
        {}, tmp_path,
    )
    assert code == 1
    assert f"FAIL: command exit 3: {broken}" in report
    assert "1 reached by the product" in report  # the other passes still count
