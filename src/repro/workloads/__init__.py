"""Synthetic workloads: seeded generators and the concurrent load engine.

:mod:`repro.workloads.generator` produces seeded op streams for the
benchmark harness; :mod:`repro.workloads.load` drives many concurrent
principals against a realm (``python -m repro load``) and measures
throughput and latency percentiles — see ``docs/scaling.md``.
"""

from repro.workloads.generator import (
    Payment,
    Zipf,
    delegation_subsets,
    payment_workload,
)
from repro.workloads.load import (
    SCENARIOS,
    LoadConfig,
    LoadReport,
    LoadScenario,
    run_load,
)

__all__ = [
    "LoadConfig",
    "LoadReport",
    "LoadScenario",
    "SCENARIOS",
    "run_load",
    "Zipf",
    "Payment",
    "payment_workload",
    "delegation_subsets",
]
