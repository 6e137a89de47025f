"""ServingTelemetry: derivation, merging, exemplar span fidelity."""

import copy
import json

import numpy as np
import pytest

from repro.serving.resilience import (ResilienceConfig,
                                      simulate_serving_resilient)
from repro.serving.simulator import BatchingConfig, simulate_serving
from repro.serving.telemetry import (PHASES, ServingTelemetry,
                                     emit_exemplar_spans)
from repro.sim.trace import Tracer


def model(batch: int) -> float:
    return 120.0 + 2.0 * batch


BATCHING = BatchingConfig(max_batch=32, max_wait_us=150.0)


def run(seed=7, n=2_000, **kwargs):
    kwargs.setdefault("registry", None)
    return simulate_serving(model, qps=30_000, batching=BATCHING,
                            num_requests=n, seed=seed, **kwargs)


class TestDerivation:
    def test_from_report_counts_and_quantiles(self):
        report = run()
        tel = ServingTelemetry.from_report(report)
        assert tel.num_requests == 2_000
        assert tel.latency.count == 2_000
        for q in (50, 95, 99):
            exact = float(np.percentile(report.latencies_us, q))
            assert abs(tel.latency.percentile(q) - exact) <= 0.0101 * exact

    def test_phase_sketches_cover_attribution(self):
        report = run()
        tel = ServingTelemetry.from_report(report)
        for name in ("queue_wait", "batch_wait", "execute"):
            assert tel.phases[name].count == 2_000
        # a run without retries has no retry phase
        assert tel.phases["retry_overhead"].count == 0
        assert set(PHASES) == set(tel.phases)

    def test_collect_telemetry_flag_attaches_and_is_noop(self):
        plain = run(collect_telemetry=False)
        collected = run(collect_telemetry=True, replica=3)
        assert plain.telemetry is None
        assert collected.telemetry is not None
        assert collected.telemetry.replicas == [3]
        assert np.array_equal(plain.latencies_us, collected.latencies_us)
        assert np.array_equal(plain.arrivals_us, collected.arrivals_us)

    def test_aborted_requests_excluded_from_latency_counted_in_status(self):
        report = simulate_serving_resilient(
            model, qps=60_000, batching=BatchingConfig(max_batch=4),
            resilience=ResilienceConfig(shed_queue_depth=8),
            num_requests=2_000, seed=1, registry=None,
            collect_telemetry=True)
        tel = report.telemetry
        counts = report.counts_by_status()
        assert counts["shed"] > 0
        assert tel.status_counts == counts
        assert tel.latency.count == counts["served"]
        assert all(r.status == "served" for r in tel.exemplars.slowest)

    def test_series_signals(self):
        report = run(collect_telemetry=True)
        tel = report.telemetry
        assert tel.series["requests"].count == 2_000
        assert tel.series["latency_us"].count == 2_000
        assert tel.series["queue_depth"].count == len(report.batches)

    def test_sketch_vs_exact_within_bound(self):
        report = run()
        tel = ServingTelemetry.from_report(report)
        deltas = tel.sketch_vs_exact(report)
        assert set(deltas) == {"p50", "p95", "p99"}
        for row in deltas.values():
            assert row["relative_error"] <= 0.0101


class TestMerge:
    def make_parts(self, count=3):
        parts = []
        for i in range(count):
            report = run(seed=10 + i, n=800)
            parts.append(ServingTelemetry.from_report(report, replica=i))
        return parts

    def test_merge_all_any_order_is_byte_identical(self):
        parts = self.make_parts()

        def merged(order):
            chosen = [copy.deepcopy(parts[i]) for i in order]
            tel = ServingTelemetry.merge_all(chosen)
            return json.dumps(tel.to_dict(include_state=True),
                              sort_keys=True)

        assert merged((0, 1, 2)) == merged((2, 1, 0)) == merged((1, 0, 2))

    def test_merge_sums_requests_and_replicas(self):
        parts = self.make_parts()
        tel = ServingTelemetry.merge_all(parts)
        assert tel.num_requests == 2_400
        assert tel.replicas == [0, 1, 2]
        assert tel.latency.count == 2_400

    def test_merge_rejects_mismatched_windows(self):
        a = ServingTelemetry(window_us=50_000.0)
        b = ServingTelemetry(window_us=10_000.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_all_empty_raises(self):
        with pytest.raises(ValueError):
            ServingTelemetry.merge_all([])


class TestExemplarSpans:
    def test_slowest_k_spans_match_full_tracer(self):
        """Acceptance: the slowest-k exemplar waterfalls are exactly the
        rows a trace of every served request draws for them."""
        report = run(collect_telemetry=True)
        slow_ids = [rid for _rep, rid
                    in report.telemetry.exemplars.slowest_ids()]
        assert len(slow_ids) == 8

        full = Tracer(enabled=True)
        emit_exemplar_spans(report, np.flatnonzero(report.served_mask),
                            full)
        post = Tracer(enabled=True)
        emitted = emit_exemplar_spans(report, slow_ids, post)
        assert list(emitted) == sorted(slow_ids)

        for rid in slow_ids:
            track = f"request.{rid}"
            expect = [(s.name, s.start, s.end, s.args)
                      for s in full.spans_on(track)]
            got = [(s.name, s.start, s.end, s.args)
                   for s in post.spans_on(track)]
            assert got == expect, f"request {rid} waterfall differs"

    def test_pids_and_labels_keep_replica_rows_distinct(self):
        """Two replicas drawn into one tracer land on separate process
        rows, and ``labels`` renames each request's row."""
        report = run(collect_telemetry=True, n=200)
        spans = Tracer(enabled=True)
        for replica in (0, 1):
            labels = {5: 1000 * replica + 5}
            drawn = emit_exemplar_spans(report, [5], spans, labels=labels,
                                        request_pid="fleet.requests",
                                        device_pid=f"fleet.replica{replica}")
            assert drawn[5].track == f"request.{labels[5]}"
            assert drawn[5].name == f"req{labels[5]}"
        devices = [s for s in spans.spans if s.track.endswith(".device")]
        assert [(s.track, s.pid) for s in devices] == [
            ("fleet.replica0.device", "fleet.replica0"),
            ("fleet.replica1.device", "fleet.replica1")]
        assert {s.pid for s in spans.spans
                if s.track.startswith("request.")} == {"fleet.requests"}

    def test_spans_sum_to_latency(self):
        report = run(collect_telemetry=True)
        for record in report.telemetry.exemplars.slowest:
            total = (record.queue_wait_us + record.batch_wait_us
                     + record.execute_us + record.retry_overhead_us)
            assert total == pytest.approx(record.latency_us, abs=1e-6)

    def test_disabled_tracer_is_noop(self):
        report = run(collect_telemetry=True)
        tracer = Tracer(enabled=False)
        assert emit_exemplar_spans(report, [0, 1], tracer) == {}
        assert not tracer.spans

    def test_out_of_range_ids_skipped(self):
        report = run(collect_telemetry=True, n=100)
        tracer = Tracer(enabled=True)
        emitted = emit_exemplar_spans(report, [-1, 5, 10 ** 6], tracer)
        assert list(emitted) == [5]


class TestExportAndDetection:
    def test_to_dict_canonical(self):
        report = run(collect_telemetry=True)
        d = report.telemetry.to_dict()
        assert set(d["series"]) == {"requests", "latency_us",
                                    "queue_depth"}
        assert d["num_requests"] == 2_000
        assert d["latency"]["count"] == 2_000
        # stable under repeated export
        assert json.dumps(d, sort_keys=True) == json.dumps(
            report.telemetry.to_dict(), sort_keys=True)

    def test_record_into_registry_prometheus(self):
        from repro.obs.metrics import MetricRegistry
        registry = MetricRegistry()
        report = run(collect_telemetry=True, registry=registry)
        prom = registry.to_prometheus()
        assert "repro_serving_latency_sketch_us" in prom
        assert 'quantile="0.99"' in prom
        assert "repro_serving_request_rate" in prom

    def test_anomaly_sweep_deterministic(self):
        report = run(collect_telemetry=True)
        first = [r.to_dict() for r in report.telemetry.anomalies()]
        second = [r.to_dict() for r in report.telemetry.anomalies()]
        assert first == second
        assert [r["stat"] for r in first] == [
            "requests.rate", "latency_us.p99", "queue_depth.mean"]

    def test_to_text_smoke(self):
        report = run(collect_telemetry=True)
        text = report.telemetry.to_text()
        assert "latency sketch" in text
        assert "slowest requests" in text
