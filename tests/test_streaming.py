"""Tests for chunked streaming execution (:mod:`repro.core.streaming`).

The streaming contract is chunk-boundary bit-identity: for any manager,
overhead model and ``chunk_size``, a streamed run's metrics must equal the
:class:`~repro.analysis.metrics.QualityMetrics` of the scalar ``run_cycle``
oracle and of the materialised path field for field — including runs whose
chunk edges land mid-way through a frame sampler's wrap-around — and
pool/spool fan-in of streamed accumulators must match serial execution
exactly.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import available_managers
from repro.api.results import RunResult
from repro.core import (
    EngineError,
    QuantileSketch,
    ScenarioBatch,
    StreamingMetrics,
    run_cycles_batch,
    run_cycles_streamed,
)
from repro.core.streaming import outcome_arrays
from repro.analysis.metrics import compute_metrics
from repro.api.session import SessionError
from repro.media import small_encoder

from helpers import make_deadline, make_seekless_system, make_synthetic_system

ALL_KEYS = sorted(available_managers())
N_CYCLES = 10
CHUNK_SIZES = (1, 7, 64, N_CYCLES, N_CYCLES + 1)


@pytest.fixture(scope="module")
def parity_setup():
    """One synthetic system, deadline, pre-drawn batch, shared per grid cell."""
    system = make_synthetic_system()
    deadlines = make_deadline(system)
    scenarios = system.draw_scenarios(N_CYCLES, np.random.default_rng(7))
    return system, deadlines, scenarios


def assert_metrics_identical(expected, actual, context=""):
    """Field-for-field (bit-exact) QualityMetrics equality."""
    assert expected == actual, f"{context}: {expected} != {actual}"


class TestChunkParityGrid:
    """Every registry key x overhead model x chunk size matches the oracle."""

    @pytest.mark.parametrize("overhead", [None, "ipod"])
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_streamed_metrics_bit_identical(self, parity_setup, key, overhead):
        system, deadlines, scenarios = parity_setup
        session = (
            Session().system(system).deadlines(deadlines).manager(key).overhead(overhead)
        )
        oracle = compute_metrics(list(session.oracle(N_CYCLES, scenarios=scenarios)), deadlines)
        baseline = session.run(scenarios=scenarios, cycles=N_CYCLES)
        assert_metrics_identical(oracle, baseline.metrics, f"{key} materialised")
        for chunk in CHUNK_SIZES:
            streamed = session.run(
                scenarios=scenarios, cycles=N_CYCLES, chunk_size=chunk
            )
            assert streamed.is_summary
            assert_metrics_identical(
                baseline.metrics, streamed.metrics, f"{key} chunk={chunk}"
            )
            assert baseline.quality_histogram == streamed.quality_histogram
            assert streamed.n_cycles == N_CYCLES

    def test_direct_engine_call_matches_compute_metrics(self, parity_setup):
        system, deadlines, scenarios = parity_setup
        session = Session().system(system).deadlines(deadlines).manager("relaxation")
        manager = session.build()
        outcomes = run_cycles_batch(system, manager, scenarios=scenarios)
        expected = compute_metrics(outcomes, deadlines)
        for chunk in (1, 3, N_CYCLES):
            summary = run_cycles_streamed(
                system,
                manager,
                scenarios=scenarios,
                deadlines=deadlines,
                chunk_size=chunk,
            )
            assert_metrics_identical(expected, summary.metrics(), f"chunk={chunk}")

    def test_chunk_size_validation(self, parity_setup):
        system, deadlines, scenarios = parity_setup
        manager = (
            Session().system(system).deadlines(deadlines).manager("constant").build()
        )
        with pytest.raises(EngineError, match="chunk_size"):
            run_cycles_streamed(
                system,
                manager,
                scenarios=scenarios,
                deadlines=deadlines,
                chunk_size=0,
            )


class TestSamplerWrapAround:
    """Chunk edges crossing the frame sampler's wrap boundary stay identical."""

    @pytest.mark.parametrize("chunk", (1, 2, 3, 4, 7, 8))
    def test_wrap_at_chunk_edge(self, chunk):
        # 3-frame sequence, 8 cycles: the sampler wraps after frames 3 and 6,
        # landing both on and off every tested chunk edge
        def fresh():
            return Session().system(small_encoder(seed=0, n_frames=3)).seed(5)

        baseline = fresh().run(cycles=8)
        streamed = fresh().run(cycles=8, chunk_size=chunk)
        assert_metrics_identical(baseline.metrics, streamed.metrics, f"chunk={chunk}")
        assert baseline.quality_histogram == streamed.quality_histogram

    def test_consecutive_streamed_runs_continue_the_stream(self):
        # two runs on one session advance the frame sampler exactly like the
        # materialised path (draws happen per chunk, same total)
        materialised = Session().system(small_encoder(seed=0, n_frames=3)).seed(5)
        streamed = Session().system(small_encoder(seed=0, n_frames=3)).seed(5)
        for cycles in (4, 5):
            a = materialised.run(cycles=cycles)
            b = streamed.run(cycles=cycles, chunk_size=3)
            assert_metrics_identical(a.metrics, b.metrics, f"cycles={cycles}")


class TestParallelFanIn:
    """Streamed accumulators fanned in over every transport match serial."""

    def _fresh(self, tmp_path):
        return (
            Session()
            .system(small_encoder(seed=0, n_frames=4))
            .seed(3)
            .artifacts(tmp_path / "cache")
        )

    def test_pool_fan_in(self, tmp_path):
        serial = self._fresh(tmp_path).run_many([1, 2, 3], parallel=False)
        pooled = self._fresh(tmp_path).run_many(
            [1, 2, 3], parallel=True, workers=2, chunk_size=2
        )
        assert serial.labels == pooled.labels
        for label in serial.labels:
            assert pooled[label].is_summary
            assert_metrics_identical(serial[label].metrics, pooled[label].metrics, label)

    def test_compare_both_transports(self, tmp_path):
        """Workers fold identical summaries whether they re-draw the shared
        scenarios (a seekable sampler) or receive them by value (a sampler
        without seek/cursor)."""
        seekless = make_seekless_system()

        def fresh_seekless():
            return (
                Session()
                .system(seekless)
                .deadlines(make_deadline(seekless))
                .seed(3)
                .artifacts(tmp_path / "cache")
            )

        for transport, fresh in (
            ("redraw", lambda: self._fresh(tmp_path)),
            ("value", fresh_seekless),
        ):
            serial = fresh().compare(cycles=4)
            streamed = fresh().compare(cycles=4, parallel=True, workers=1, chunk_size=3)
            for label in serial.labels:
                assert streamed[label].is_summary
                assert_metrics_identical(
                    serial[label].metrics, streamed[label].metrics, f"{transport}:{label}"
                )

    def test_spool_fan_in(self, tmp_path):
        serial = self._fresh(tmp_path).run_many([1, 2], parallel=False)
        spooled = self._fresh(tmp_path).remote(
            tmp_path / "spool", poll_interval=0.02, timeout=120.0, local_workers=1
        )
        streamed = spooled.run_many([1, 2], chunk_size=2)
        for label in serial.labels:
            assert streamed[label].is_summary
            assert_metrics_identical(serial[label].metrics, streamed[label].metrics, label)


class TestQuantileSketch:
    def test_empty_and_bounds_raise(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.quantile(0.5)
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            QuantileSketch(resolution=3)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=1.0, sigma=2.0, size=5000)
        sketch = QuantileSketch()
        sketch.add_array(values)
        assert sketch.count == values.size
        for q in (0.01, 0.25, 0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q))
            approx = sketch.quantile(q)
            assert abs(approx - exact) / exact < 2.0 * sketch.relative_error

    def test_merge_equals_bulk(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(scale=3.0, size=1000)
        bulk = QuantileSketch()
        bulk.add_array(values)
        left, right = QuantileSketch(), QuantileSketch()
        left.add_array(values[:400])
        right.add_array(values[400:])
        left.merge(right)
        assert left.count == bulk.count
        for q in (0.1, 0.5, 0.95):
            assert left.quantile(q) == bulk.quantile(q)

    def test_nonpositive_values(self):
        sketch = QuantileSketch()
        sketch.add_array(np.array([-1.0, 0.0, 2.0, 4.0]))
        assert sketch.count == 4
        assert sketch.quantile(0.0) == 0.0

    def test_infinite_values_keep_their_own_tally(self):
        sketch = QuantileSketch()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no invalid-cast warning
            sketch.add_array(np.array([1.0, 2.0, np.inf]))
        assert sketch.count == 3
        assert sketch.quantile(1.0) == np.inf
        assert sketch.quantile(0.75) == np.inf
        assert sketch.quantile(0.5) == pytest.approx(2.0, rel=sketch.relative_error)
        other = QuantileSketch()
        other.add_array(np.array([np.inf, 0.0]))
        sketch.merge(other)
        assert sketch.count == 5
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(0.5) == pytest.approx(2.0, rel=sketch.relative_error)
        assert sketch.quantile(0.75) == np.inf

    def test_nan_is_rejected(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError, match="NaN"):
            sketch.add_array(np.array([1.0, np.nan]))
        assert sketch.count == 0

    def test_pickle_roundtrip(self):
        sketch = QuantileSketch()
        sketch.add_array(np.array([0.5, 1.5, 2.5]))
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.count == sketch.count
        assert clone.quantile(0.5) == sketch.quantile(0.5)


class TestStreamingMetricsAccumulator:
    @pytest.fixture()
    def halves(self):
        system = make_synthetic_system(n_actions=12)
        deadlines = make_deadline(system)
        manager = (
            Session().system(system).deadlines(deadlines).manager("relaxation").build()
        )
        scenarios = system.draw_scenarios(6, np.random.default_rng(2))
        outcomes = run_cycles_batch(system, manager, scenarios=scenarios)
        return deadlines, outcomes

    def test_merge_combines_halves(self, halves):
        deadlines, outcomes = halves
        whole = StreamingMetrics(deadlines)
        whole.update_chunk(*outcome_arrays(outcomes))
        first, second = StreamingMetrics(deadlines), StreamingMetrics(deadlines)
        first.update_chunk(*outcome_arrays(outcomes[:3]))
        second.update_chunk(*outcome_arrays(outcomes[3:]))
        first.merge(second)
        assert first.n_cycles == whole.n_cycles
        assert first.quality_level_counts == whole.quality_level_counts
        merged, reference = first.metrics(), whole.metrics()
        # integer folds are exact under merge; float folds re-associate, so
        # they match to numerical accuracy rather than bitwise
        assert merged.deadline_misses == reference.deadline_misses
        assert merged.manager_calls == reference.manager_calls
        assert merged.mean_quality == reference.mean_quality
        assert merged.smoothness == pytest.approx(reference.smoothness, rel=1e-12)
        assert merged.overhead_seconds == pytest.approx(
            reference.overhead_seconds, rel=1e-12
        )

    def test_std_quality_is_insertion_order_invariant(self, halves):
        # one-cycle chunks folded in opposite orders insert the histogram
        # keys in different orders; the float variance sum must not depend
        # on which order the levels arrived in
        deadlines, outcomes = halves
        forward = StreamingMetrics(deadlines)
        backward = StreamingMetrics(deadlines)
        for outcome in outcomes:
            forward.update_chunk(*outcome_arrays([outcome]))
        for outcome in reversed(outcomes):
            backward.update_chunk(*outcome_arrays([outcome]))
        assert forward.metrics().std_quality == backward.metrics().std_quality
        assert forward.metrics().mean_quality == backward.metrics().mean_quality

    def test_merge_rejects_mismatched_deadlines(self, halves):
        deadlines, outcomes = halves
        other_system = make_synthetic_system(n_actions=12)
        other = StreamingMetrics(make_deadline(other_system, slack=2.0))
        accumulator = StreamingMetrics(deadlines)
        accumulator.update_chunk(*outcome_arrays(outcomes[:1]))
        other.update_chunk(*outcome_arrays(outcomes[:1]))
        with pytest.raises(ValueError, match="deadline"):
            accumulator.merge(other)

    @pytest.fixture()
    def short_run(self):
        """One cycle of a 5-action system, against the 12 of ``halves``."""
        short = make_synthetic_system(n_actions=5)
        return run_cycles_batch(
            short,
            Session().system(short).deadlines(make_deadline(short)).manager("region").build(),
            scenarios=short.draw_scenarios(1, np.random.default_rng(0)),
        )

    def test_outcomes_of_different_lengths_raise(self, halves, short_run):
        deadlines, outcomes = halves
        with pytest.raises(ValueError, match="different lengths"):
            outcome_arrays([outcomes[0], short_run[0]])
        with pytest.raises(ValueError, match="different lengths"):
            compute_metrics([outcomes[0], short_run[0]], deadlines)

    def test_update_chunk_rejects_another_action_count(self, halves, short_run):
        deadlines, outcomes = halves
        accumulator = StreamingMetrics(deadlines)
        accumulator.update_chunk(*outcome_arrays(outcomes))
        with pytest.raises(ValueError, match="5 actions .* 12-action"):
            accumulator.update_chunk(*outcome_arrays(short_run))
        assert accumulator.n_cycles == len(outcomes)

    def test_merge_rejects_another_action_count(self, halves, short_run):
        deadlines, outcomes = halves
        accumulator, other = StreamingMetrics(deadlines), StreamingMetrics(deadlines)
        accumulator.update_chunk(*outcome_arrays(outcomes))
        other.update_chunk(*outcome_arrays(short_run))
        with pytest.raises(ValueError, match="5 actions .* 12-action"):
            accumulator.merge(other)
        assert accumulator.n_cycles == len(outcomes)

    def test_update_chunk_rejects_misshapen_columns(self, halves):
        deadlines, outcomes = halves
        qualities, completion, invoked, overheads = outcome_arrays(outcomes)
        for chunk in (
            (qualities, completion, invoked.T, overheads),
            (qualities, completion, invoked, overheads.T),
            (qualities, completion[:, :-1], invoked, overheads),
        ):
            accumulator = StreamingMetrics(deadlines)
            with pytest.raises(ValueError, match="n_actions, n_cycles"):
                accumulator.update_chunk(*chunk)
            assert accumulator.n_cycles == 0

    def test_empty_metrics_raises(self, halves):
        deadlines, _ = halves
        with pytest.raises(ValueError, match="at least one cycle"):
            StreamingMetrics(deadlines).metrics()

    def test_pickle_roundtrip(self, halves):
        deadlines, outcomes = halves
        accumulator = StreamingMetrics(deadlines)
        accumulator.update_chunk(*outcome_arrays(outcomes))
        clone = pickle.loads(pickle.dumps(accumulator))
        assert clone.metrics() == accumulator.metrics()
        assert clone.quality_level_counts == accumulator.quality_level_counts


class TestSummaryRunResult:
    @pytest.fixture()
    def pair(self):
        def fresh():
            return Session().system("small").seed(1).cycles(5)

        return fresh().run(), fresh().run(chunk_size=2)

    def test_summary_metrics_match(self, pair):
        materialised, summary = pair
        assert summary.is_summary and not materialised.is_summary
        assert materialised.metrics == summary.metrics
        assert materialised.quality_histogram == summary.quality_histogram
        assert summary.n_cycles == materialised.n_cycles
        assert summary.render() == materialised.render()

    def test_per_cycle_accessors_raise(self, pair):
        _, summary = pair
        with pytest.raises(ValueError, match="summary-only"):
            summary.mean_quality_per_cycle
        with pytest.raises(ValueError, match="summary-only"):
            summary.quality_values

    def test_quality_values_cached_and_empty_safe(self, pair):
        materialised, _ = pair
        first = materialised.quality_values
        assert first is materialised.quality_values  # cached, not rebuilt
        empty = RunResult(
            manager_key="constant",
            manager_name="constant",
            outcomes=(),
            deadlines=materialised.deadlines,
        )
        assert empty.quality_values.shape == (0,)
        assert empty.quality_histogram == {}


class TestScenarioBatchSlicing:
    def test_slices_are_views(self):
        system = make_synthetic_system(n_actions=8)
        batch = system.draw_scenarios(6, np.random.default_rng(0))
        window = batch[2:5]
        assert isinstance(window, ScenarioBatch)
        assert len(window) == 3
        assert np.shares_memory(window.tensor, batch.tensor)
        np.testing.assert_array_equal(window.tensor, batch.tensor[2:5])

    def test_shared_batch_slices_are_views(self):
        system = make_synthetic_system(n_actions=8)
        single = system.draw_scenarios(1, np.random.default_rng(0))
        shared = ScenarioBatch.shared(single.qualities, single.tensor[0], 5)
        window = shared[1:4]
        assert np.shares_memory(window.tensor, shared.tensor)
        assert len(window) == 3

    def test_view_batches_stay_readonly(self):
        system = make_synthetic_system(n_actions=8)
        batch = system.draw_scenarios(4, np.random.default_rng(0))
        window = batch[1:3]
        with pytest.raises(ValueError):
            window.tensor[0, 0, 0] = 1.0


class TestChunkSizeResolution:
    def test_precedence_per_call_builder_env(self):
        session = Session().system("small").seed(0).cycles(4)
        session.chunk_size(3)
        assert session.run().is_summary  # builder
        assert not session.run(chunk_size=None).is_summary  # per-call opt-out
        assert session.run(chunk_size=2).is_summary  # per-call override
        session.chunk_size(None)
        assert not session.run().is_summary

    def test_invalid_chunk_sizes_raise(self):
        session = Session().system("small")
        with pytest.raises(SessionError):
            session.chunk_size(0)
        with pytest.raises(SessionError):
            session.run(cycles=2, chunk_size="nope")


class TestStreamingObservability:
    def test_chunk_counters_and_report_section(self, tmp_path, monkeypatch):
        from repro.obs import metrics, reset_enabled
        from repro.obs.export import build_report, read_events, render_report

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "telemetry"))
        reset_enabled()
        metrics.registry().reset()
        try:
            Session().system("small").seed(0).run(cycles=6, chunk_size=2)
            snap = metrics.registry().snapshot()["metrics"]
            assert snap["engine.chunks"] == {"kind": "counter", "value": 3}
            assert snap["engine.cycles.streamed"] == {"kind": "counter", "value": 6}
            peak = snap["engine.peak_chunk_bytes"]
            assert peak["kind"] == "gauge" and peak["value"] > 0
            report = build_report(read_events(tmp_path / "telemetry"))
            rendered = render_report(report)
            assert "streaming engine" in rendered
            assert "cycles streamed" in rendered
            assert "peak chunk tensor" in rendered
        finally:
            reset_enabled()
            metrics.registry().reset()
