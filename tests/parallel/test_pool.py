"""Chunk dispatch: fixed boundaries, bit identity, ordered errors."""

import numpy as np
import pytest

from repro.obs import TraceCollector
from repro.parallel import (
    chunk_kernel,
    fixed_chunks,
    run_chunk_tasks,
    run_kernel_chunks,
    shutdown_pools,
)


@chunk_kernel("tests.pool.affine")
def _affine(views, lo, hi):
    views["out"][lo:hi] = views["x"][lo:hi] * views["scale"][()] + 1.0


class TestFixedChunks:
    def test_covers_range_exactly(self):
        bounds = fixed_chunks(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_chunk(self):
        assert fixed_chunks(5, 100) == [(0, 5)]

    def test_empty(self):
        assert fixed_chunks(0, 4) == []

    def test_boundaries_independent_of_worker_count(self):
        # The boundaries are a function of (n, chunk) only — there is no
        # worker-count parameter to leak in.
        assert fixed_chunks(1000, 64) == fixed_chunks(1000, 64)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_chunk(self, bad):
        with pytest.raises(ValueError):
            fixed_chunks(10, bad)


class TestRunChunkTasks:
    def _run(self, jobs: int) -> np.ndarray:
        rng = np.random.default_rng(7)
        x = rng.normal(size=10_000)
        out = np.empty_like(x)

        def task(lo: int, hi: int) -> None:
            out[lo:hi] = np.sqrt(np.abs(x[lo:hi])) * 3.0

        run_chunk_tasks(task, fixed_chunks(x.size, 512), jobs=jobs)
        return out

    def test_serial_and_parallel_are_bit_identical(self):
        serial = self._run(1)
        for jobs in (2, 3, 8):
            assert np.array_equal(serial, self._run(jobs))

    def test_lowest_failing_chunk_raises(self):
        def task(lo: int, hi: int) -> None:
            if lo >= 4:
                raise RuntimeError(f"chunk {lo}")

        with pytest.raises(RuntimeError, match="chunk 4"):
            run_chunk_tasks(task, fixed_chunks(12, 2), jobs=4)

    def test_counters_only_on_parallel_dispatch(self):
        collector = TraceCollector()
        run_chunk_tasks(
            lambda lo, hi: None, fixed_chunks(8, 2), jobs=1, collector=collector
        )
        assert "parallel.dispatches" not in collector.trace().counters

        run_chunk_tasks(
            lambda lo, hi: None,
            fixed_chunks(8, 2),
            jobs=2,
            collector=collector,
            stage="test.stage",
        )
        trace = collector.trace()
        assert trace.counters["parallel.dispatches"] == 1
        assert trace.counters["parallel.chunks"] == 4
        span = next(s for s in trace.spans if s.name == "parallel.dispatch")
        assert span.attrs is not None and span.attrs["stage"] == "test.stage"

    def test_shutdown_pools_is_idempotent(self):
        shutdown_pools()
        shutdown_pools()
        # Dispatch works again after a shutdown (pool is lazily rebuilt).
        out = self._run(2)
        assert out.shape == (10_000,)


class TestRunKernelChunks:
    def _run(self, jobs: int, collector=None) -> np.ndarray:
        x = np.random.default_rng(11).normal(size=5_000)
        out = np.zeros_like(x)
        kwargs = {} if collector is None else {"collector": collector}
        run_kernel_chunks(
            "tests.pool.affine",
            {"x": x, "scale": np.asarray(2.5), "out": out},
            fixed_chunks(x.size, 333),
            jobs=jobs,
            **kwargs,
        )
        return out

    def test_threaded_matches_serial(self):
        serial = self._run(1)
        assert np.array_equal(
            serial, np.random.default_rng(11).normal(size=5_000) * 2.5 + 1.0
        )
        for jobs in (2, 3):
            assert np.array_equal(serial, self._run(jobs))

    def test_one_dispatch_counted_per_call(self):
        collector = TraceCollector()
        self._run(2, collector)
        trace = collector.trace()
        assert trace.counters["parallel.dispatches"] == 1
        assert trace.counters["parallel.chunks"] == 16
        span = next(s for s in trace.spans if s.name == "parallel.dispatch")
        assert span.attrs is not None and span.attrs["stage"] == "tests.pool.affine"

    def test_unknown_kernel_raises_before_dispatch(self):
        with pytest.raises(KeyError, match="no-such-kernel"):
            run_kernel_chunks("no-such-kernel", {}, fixed_chunks(4, 2), jobs=2)
