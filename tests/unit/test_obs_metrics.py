"""Unit tests for repro.obs.metrics — the fleet-level registry contract.

The disabled-default contract: mutators on a disabled registry return
immediately and allocate nothing.
"""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRIC_LABEL_CAP,
    NULL_METRICS,
    MetricError,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
    set_default_registry,
)


@pytest.fixture(autouse=True)
def _fresh_default():
    reset_default_registry()
    yield
    reset_default_registry()


class TestDisabled:
    def test_null_metrics_is_disabled(self):
        assert NULL_METRICS.enabled is False

    def test_disabled_counter_inc_stores_nothing(self):
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("repro_c_total", "help", ("kind",))
        for _ in range(100):
            counter.inc(kind="x")
        assert counter.samples() == []
        assert counter.value(kind="x") == 0.0

    def test_disabled_gauge_and_histogram_store_nothing(self):
        reg = MetricsRegistry(enabled=False)
        gauge = reg.gauge("repro_g")
        hist = reg.histogram("repro_h_seconds")
        gauge.set(5.0)
        gauge.inc()
        gauge.dec()
        hist.observe(1.5)
        assert gauge.samples() == []
        assert hist.samples() == []

    def test_disabled_counter_skips_validation(self):
        # The early return happens before any label/sign checking —
        # that is the "one attribute check and nothing else" contract
        # hot call sites rely on.
        counter = MetricsRegistry(enabled=False).counter("repro_c_total", "", ("a",))
        counter.inc(-5, bogus_label="x")  # must not raise

    def test_default_registry_is_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        reset_default_registry()
        assert default_registry() is NULL_METRICS


class TestDefaultRegistry:
    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        reset_default_registry()
        reg = default_registry()
        assert reg.enabled is True
        assert reg is not NULL_METRICS
        assert default_registry() is reg  # cached

    def test_env_zero_stays_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        reset_default_registry()
        assert default_registry() is NULL_METRICS

    def test_set_default_registry_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        mine = MetricsRegistry(enabled=True)
        set_default_registry(mine)
        assert default_registry() is mine
        reset_default_registry()
        assert default_registry() is NULL_METRICS


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("repro_jobs_total", "", ("outcome",))
        counter.inc(outcome="serial")
        counter.inc(2, outcome="serial")
        counter.inc(outcome="parallel")
        assert counter.value(outcome="serial") == 3.0
        assert counter.value(outcome="parallel") == 1.0

    def test_negative_inc_raises(self):
        counter = MetricsRegistry().counter("repro_c_total")
        with pytest.raises(MetricError, match="decrease"):
            counter.inc(-1)

    def test_wrong_labels_raise(self):
        counter = MetricsRegistry().counter("repro_c_total", "", ("kind",))
        with pytest.raises(MetricError, match="expected labels"):
            counter.inc(other="x")
        with pytest.raises(MetricError, match="expected labels"):
            counter.inc()

    def test_samples_sorted_by_label_values(self):
        counter = MetricsRegistry().counter("repro_c_total", "", ("k",))
        counter.inc(k="zz")
        counter.inc(k="aa")
        assert [labels["k"] for labels, _ in counter.samples()] == ["aa", "zz"]


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 13.0


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        hist = MetricsRegistry().histogram("repro_h_seconds", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        [(labels, (counts, total, count))] = hist.samples()
        assert labels == {}
        assert counts == [1, 1, 1]  # <=1, <=10, +Inf
        assert total == 105.5
        assert count == 3

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus buckets are upper-inclusive: le="1.0" covers 1.0.
        hist = MetricsRegistry().histogram("repro_h_seconds", buckets=(1.0, 10.0))
        hist.observe(1.0)
        [(_, (counts, _, _))] = hist.samples()
        assert counts == [1, 0, 0]

    def test_mean(self):
        hist = MetricsRegistry().histogram("repro_h_seconds", buckets=(1.0,))
        assert hist.mean() == 0.0
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean() == 3.0

    def test_default_buckets_are_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS

    def test_empty_buckets_raise(self):
        with pytest.raises(MetricError, match="bucket"):
            MetricsRegistry().histogram("repro_h_seconds", buckets=())


class TestRegistration:
    def test_same_name_same_shape_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_c_total", "help", ("k",))
        b = reg.counter("repro_c_total", "other help", ("k",))
        assert a is b
        assert len(reg) == 1

    def test_same_name_different_type_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_metric_total")
        with pytest.raises(MetricError, match="already registered"):
            reg.gauge("repro_metric_total")

    def test_same_name_different_labels_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_metric_total", "", ("a",))
        with pytest.raises(MetricError, match="already registered"):
            reg.counter("repro_metric_total", "", ("b",))

    def test_invalid_names_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError, match="invalid metric name"):
            reg.counter("1bad")
        with pytest.raises(MetricError, match="invalid label name"):
            reg.counter("repro_ok_total", "", ("bad-label",))
        with pytest.raises(MetricError, match="invalid label name"):
            reg.counter("repro_ok_total", "", ("__reserved",))
        with pytest.raises(MetricError, match="duplicate"):
            reg.counter("repro_ok_total", "", ("a", "a"))

    def test_collect_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("repro_zz_total")
        reg.gauge("repro_aa")
        assert [i.name for i in reg.collect()] == ["repro_aa", "repro_zz_total"]


class TestNameContract:
    """Every registration meets the naming contract or raises, naming
    the metric, whether metrics are on or off."""

    @pytest.mark.parametrize("registry", [MetricsRegistry(), NULL_METRICS],
                             ids=["enabled", "null"])
    @pytest.mark.parametrize("register, name", [
        (lambda reg: reg.counter("repro_runs_totl"), "repro_runs_totl"),
        (lambda reg: reg.counter("jobs_total"), "jobs_total"),
        (lambda reg: reg.gauge("repro_Jobs_total"), "repro_Jobs_total"),
        (lambda reg: reg.histogram("repro_job_seconds_"), "repro_job_seconds_"),
        (lambda reg: reg.gauge("repro_depth", "", ("a", "b", "c", "d")),
         "repro_depth"),
    ], ids=["counter-without-total", "no-prefix", "upper-case",
            "trailing-underscore", "four-labels"])
    def test_breach_raises_naming_the_metric(self, registry, register, name):
        with pytest.raises(MetricError, match=name):
            register(registry)
        assert name not in [i.name for i in registry.collect()]

    def test_label_cap_is_three(self):
        assert METRIC_LABEL_CAP == 3
        labels = ("a", "b", "c")
        assert MetricsRegistry().counter("repro_c_total", "", labels).labelnames == labels
