"""The metrics registry and its Prometheus text exposition."""

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    prometheus_name,
)
from repro.obs.export import prometheus_text


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        c = Counter("requests_total")
        c.inc(op="read")
        c.inc(2, op="read")
        c.inc(op="write")
        assert c.value(op="read") == 3
        assert c.value(op="write") == 1
        assert c.value(op="delete") == 0
        assert c.total() == 4

    def test_label_order_is_irrelevant(self):
        c = Counter("c")
        c.inc(a="1", b="2")
        assert c.value(b="2", a="1") == 1

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        h = Histogram("latency", buckets=(0.01, 0.1, 1.0))
        h.observe(0.005)
        h.observe(0.05)
        h.observe(5.0)  # beyond the last bound: only +Inf
        ((_, series),) = h.series()
        # le semantics: each stored count includes everything smaller.
        assert series.bucket_counts == [1, 2, 2]
        assert series.count == 3
        assert series.sum == pytest.approx(5.055)

    def test_per_label_series_are_independent(self):
        h = Histogram("latency", buckets=(1.0,))
        h.observe(0.5, scheme="hmac")
        h.observe(0.5, scheme="rsa")
        h.observe(0.5, scheme="rsa")
        assert h.count(scheme="hmac") == 1
        assert h.count(scheme="rsa") == 2
        assert h.total_count() == 3

    def test_buckets_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestRegistry:
    def test_register_on_first_use_then_refetch(self):
        registry = MetricsRegistry()
        a = registry.counter("x", help="first")
        b = registry.counter("x", help="ignored")
        assert a is b
        assert a.help == "first"

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_default_histogram_buckets(self):
        registry = MetricsRegistry()
        assert registry.histogram("h").buckets == LATENCY_BUCKETS


class TestPrometheusText:
    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.counter("msgs_total", help="Messages.").inc(
            3, msg_type="request"
        )
        text = prometheus_text(registry)
        assert "# HELP msgs_total Messages." in text
        assert "# TYPE msgs_total counter" in text
        assert 'msgs_total{msg_type="request"} 3' in text

    def test_histogram_exposition_has_buckets_sum_count(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05, op="verify")
        h.observe(0.5, op="verify")
        text = prometheus_text(registry)
        assert 'lat_bucket{op="verify",le="0.1"} 1' in text
        assert 'lat_bucket{op="verify",le="1"} 2' in text
        assert 'lat_bucket{op="verify",le="+Inf"} 2' in text
        assert 'lat_sum{op="verify"} 0.55' in text
        assert 'lat_count{op="verify"} 2' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(who='evil"name\\with\nnewline')
        text = prometheus_text(registry)
        assert 'who="evil\\"name\\\\with\\nnewline"' in text

    def test_families_sorted_and_unlabelled_series(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc(7)
        text = prometheus_text(registry)
        assert text.index("alpha") < text.index("zeta")
        assert "\nalpha 7\n" in text
        assert "\nzeta 1\n" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestExpositionConformance:
    """Invariants the Prometheus/OpenMetrics formats actually require."""

    def test_prometheus_name_sanitizes_dots_and_strays(self):
        assert prometheus_name("vcache.sig.hit") == "vcache_sig_hit"
        assert prometheus_name("weird-name with spaces") == (
            "weird_name_with_spaces"
        )
        assert prometheus_name("2fast") == "_2fast"

    def test_prometheus_name_is_idempotent_on_legal_names(self):
        for name in ("msgs_total", "a:b:c", "_leading", "x9"):
            assert prometheus_name(name) == name
            assert prometheus_name(prometheus_name(name)) == (
                prometheus_name(name)
            )

    def test_every_exposed_sample_name_is_legal(self):
        import re

        registry = MetricsRegistry()
        registry.counter("vcache.sig.hit").inc()
        registry.counter("9lives").inc()
        registry.histogram("net.latency", buckets=(0.1,)).observe(0.05)
        legal = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
        for line in prometheus_text(registry).splitlines():
            if not line or line.startswith("#"):
                continue
            sample = line.split("{")[0].split(" ")[0]
            assert legal.match(sample), line

    def test_bucket_counts_are_cumulative_and_end_at_count(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
        for value in (0.0005, 0.005, 0.005, 0.05, 0.5, 5.0):
            h.observe(value)
        text = prometheus_text(registry)
        counts = []
        for line in text.splitlines():
            if line.startswith("lat_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert 'le="+Inf"} 6' in text
        assert "lat_count 6" in text
        assert "lat_sum 5.5605" in text

    def test_help_and_type_precede_samples_once_per_family(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", help="Latency.", buckets=(0.1,))
        h.observe(0.05, op="a")
        h.observe(0.05, op="b")
        text = prometheus_text(registry)
        assert text.count("# HELP lat Latency.") == 1
        assert text.count("# TYPE lat histogram") == 1
        assert text.index("# TYPE lat histogram") < text.index("lat_bucket")

    def test_exemplar_renders_on_the_native_bucket_only(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05, exemplar="a" * 32)
        text = prometheus_text(registry)
        assert (
            'lat_bucket{le="0.1"} 1 # {trace_id="' + "a" * 32 + '"} 0.05'
            in text
        )
        # The wider buckets count the observation but carry no exemplar.
        assert 'lat_bucket{le="1"} 1\n' in text
        assert 'lat_bucket{le="+Inf"} 1\n' in text

    def test_overflow_exemplar_lands_on_the_inf_bucket(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1,))
        h.observe(7.0, exemplar="b" * 32)
        text = prometheus_text(registry)
        assert (
            'lat_bucket{le="+Inf"} 1 # {trace_id="' + "b" * 32 + '"} 7'
            in text
        )

    def test_no_exemplar_no_suffix(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.1,)).observe(0.05)
        text = prometheus_text(registry)
        assert "#" not in text.split("# TYPE lat histogram\n", 1)[1]

    def test_latest_exemplar_wins_per_bucket(self):
        h = Histogram("lat", buckets=(0.1,))
        h.observe(0.01, exemplar="a" * 32)
        h.observe(0.02, exemplar="c" * 32)
        ((_, series),) = h.series()
        assert series.exemplars[0] == ("c" * 32, 0.02)


class TestUsageExpositionConformance:
    """The usage meter's mirrored ``usage.*`` metrics must honor the same
    format invariants as every other family."""

    @pytest.fixture(scope="class")
    def usage_text(self):
        from repro.obs import Telemetry
        from repro.workloads.load import run_figure

        telemetry = Telemetry(capture_crypto=True, meter_usage=True)
        try:
            run_figure("fig5", telemetry)
        finally:
            telemetry.release_crypto()
        return telemetry, prometheus_text(telemetry.metrics)

    def test_dotted_usage_names_are_sanitized(self, usage_text):
        _, text = usage_text
        assert "usage_messages_total{" in text
        assert "usage_bytes_total{" in text
        assert "usage_request_seconds_bucket{" in text
        assert "usage.messages_total" not in text

    def test_every_usage_sample_name_is_legal(self, usage_text):
        import re

        _, text = usage_text
        legal = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
        seen = 0
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            sample = line.split("{")[0].split(" ")[0]
            if sample.startswith("usage_"):
                seen += 1
                assert legal.match(sample), line
        assert seen > 0

    def test_usage_histogram_buckets_are_cumulative(self, usage_text):
        _, text = usage_text
        per_series = {}
        for line in text.splitlines():
            if not line.startswith("usage_request_seconds_bucket"):
                continue
            labels = line.split("{", 1)[1].split("}", 1)[0]
            principal = [
                pair for pair in labels.split(",")
                if pair.startswith("principal=")
            ][0]
            count = int(line.split("}", 1)[1].strip().split(" ")[0])
            per_series.setdefault(principal, []).append(count)
        assert per_series
        for principal, counts in per_series.items():
            assert counts == sorted(counts), (
                f"{principal}: bucket counts must be cumulative"
            )

    def test_usage_exemplars_carry_trace_ids(self, usage_text):
        import re

        _, text = usage_text
        exemplars = re.findall(
            r'usage_request_seconds_bucket\{[^}]*\} \d+ '
            r'# \{trace_id="([0-9a-f]{32})"\}',
            text,
        )
        assert exemplars, "metered wire sends must emit bucket exemplars"

    def test_mirrored_counters_agree_with_the_meter(self, usage_text):
        telemetry, _ = usage_text
        meter = telemetry.usage
        assert (
            telemetry.metrics.counter("usage.messages_total").total()
            == meter.total_messages()
        )
        assert (
            telemetry.metrics.counter("usage.bytes_total").total()
            == meter.total_bytes()
        )
