"""The repo's one benchmark: see ``perf/README.md`` and ``BENCHMARK.json``."""
