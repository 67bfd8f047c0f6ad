"""Every layer boundary the benchmark wraps still names a function.

``perf/trace.py`` rebinds ``repro`` functions by import path (its
``BOUNDARIES`` table).  A rename or move under ``src/`` must fail here,
in the tier-1 suite, rather than first in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf import trace  # noqa: E402


@pytest.mark.parametrize(
    "boundary", trace.BOUNDARIES, ids=[b.span for b in trace.BOUNDARIES]
)
def test_boundary_resolves(boundary):
    _, _, raw = trace._resolve(boundary.target)
    assert callable(trace._function_of(raw))

