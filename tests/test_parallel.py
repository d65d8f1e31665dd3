"""The parallel executor layer: bit-identity, fallbacks, instruments.

The contract under test is the one ISSUE 7 states: parallel execution
may only change the wall clock. Concretely:

* every transform (forward, lazy forward, inverse, scaled inverse,
  broadcast forward) is **bit-identical** across executors and worker
  counts, including the lazy [0, 2q) representatives;
* a full homomorphic multiply — tensor fan-out, keyswitch folding and
  all — produces byte-identical ciphertexts under the thread pool;
* an executor that cannot be built degrades *loudly* to serial: a
  structured :class:`ExecutorFallback`, a counter increment, and an
  unchanged answer;
* dispatches feed the observability plane (dispatch counter, tile
  histogram, utilisation gauge, per-worker tile spans) and the
  timeline exporter spreads tile spans over per-worker lanes that
  still validate.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nttmath.batch as batch_mod
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.nttmath.batch import basis_transformer, transform_counts
from repro.nttmath.primes import find_ntt_primes
from repro.obs import Tracer, current_registry, validate_chrome_trace
from repro.obs.timeline import spans_to_chrome
from repro.parallel import (
    EXECUTOR_MODES,
    ExecutionConfig,
    SerialExecutor,
    ThreadPoolExecutor,
    active_executor,
    available_cores,
    build_executor,
    executor_fallbacks,
    in_worker,
    inproc_executor,
    reset_executor_fallbacks,
    split_range,
    use_executor,
)
from repro.parallel.executors import _run_as_worker

N, K, J = 256, 5, 3


@pytest.fixture(autouse=True)
def _force_tiling(monkeypatch):
    """Every transform in this module tiles, whatever its size."""
    monkeypatch.setattr(batch_mod, "PARALLEL_MIN_WORK", 1)
    reset_executor_fallbacks()
    yield
    reset_executor_fallbacks()


@pytest.fixture(scope="module")
def primes():
    return tuple(find_ntt_primes(30, N, K))


@pytest.fixture(scope="module")
def stack(primes):
    rng = np.random.default_rng(2026)
    bt = basis_transformer(primes, N)
    return rng.integers(0, bt.primes_col, size=(J, K, N))


def _all_transforms(primes, stack):
    """Every dispatcher path, as (name, result) pairs."""
    bt = basis_transformer(primes, N)
    constants = tuple(int(p) - 7 - i for i, p in enumerate(primes))
    digits = np.abs(stack[:, 0, :]) % (1 << 29)
    fwd = bt.forward(stack)
    return [
        ("forward", fwd),
        ("forward_lazy", bt.forward(stack, lazy=True)),
        ("inverse", bt.inverse(fwd)),
        ("inverse_scaled", bt.inverse_scaled(fwd, constants)),
        ("forward_broadcast", bt.forward_broadcast(digits)),
        ("forward_broadcast_lazy", bt.forward_broadcast(digits, lazy=True)),
    ]


class TestConfig:
    def test_from_env_defaults_to_serial(self):
        config = ExecutionConfig.from_env({})
        assert config == ExecutionConfig(mode="serial", workers=1)

    def test_from_env_reads_mode_and_workers(self):
        config = ExecutionConfig.from_env(
            {"REPRO_EXECUTOR": " Threads ", "REPRO_WORKERS": "3"})
        assert config == ExecutionConfig(mode="threads", workers=3)

    def test_from_env_sizes_pool_from_affinity(self):
        config = ExecutionConfig.from_env({"REPRO_EXECUTOR": "threads"})
        assert config.workers == min(8, available_cores())

    def test_malformed_workers_flagged_not_raised(self):
        config = ExecutionConfig.from_env(
            {"REPRO_EXECUTOR": "threads", "REPRO_WORKERS": "four"})
        assert config.workers == 0  # rejected later, loudly

    def test_split_range_partitions_exactly(self):
        for size in (1, 5, 17, 64):
            for parts in (1, 2, 3, 8, 100):
                chunks = split_range(size, parts)
                assert chunks[0][0] == 0 and chunks[-1][1] == size
                assert all(a[1] == b[0]
                           for a, b in zip(chunks, chunks[1:], strict=False))
                widths = {hi - lo for lo, hi in chunks}
                assert max(widths) - min(widths) <= 1
                assert len(chunks) == min(parts, size)


class TestBitIdentity:
    """Parallel must equal serial to the last bit, lazy slack included."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_threads_match_serial(self, primes, stack, workers):
        with use_executor("serial"):
            reference = _all_transforms(primes, stack)
        with use_executor("threads", workers):
            assert active_executor().name == "threads"
            parallel = _all_transforms(primes, stack)
        for (name, want), (_, got) in zip(reference, parallel, strict=True):
            assert np.array_equal(want, got), f"{name} diverged"

    def test_transform_counts_identical(self, primes, stack):
        with use_executor("serial"):
            before = transform_counts()
            _all_transforms(primes, stack)
            serial_counts = {
                k: v - before.get(k, 0)
                for k, v in transform_counts().items()
            }
        with use_executor("threads", 2):
            before = transform_counts()
            _all_transforms(primes, stack)
            parallel_counts = {
                k: v - before.get(k, 0)
                for k, v in transform_counts().items()
            }
        assert serial_counts == parallel_counts

    def test_channel_range_matches_full_transform(self, primes, stack):
        """A tile runs the parent plan on its channel range: every
        range, lazy representatives included, equals those rows of the
        whole-basis transform."""
        bt = basis_transformer(primes, N)
        constants = tuple(int(p) - 7 - i for i, p in enumerate(primes))
        digit = np.abs(stack[0, 0]) % (1 << 29)
        with use_executor("serial"):
            fwd_lazy = bt.forward(stack[0], lazy=True)
            inv = bt.inverse(stack[0])
            scaled = bt.inverse_scaled(stack[0], constants)
            bcast = bt.forward_broadcast(digit[None])[0]
        plans = ((bt._fwd, fwd_lazy, True), (bt._inv, inv, False),
                 (bt.scaled_plan(constants), scaled, False))
        for c0 in range(K):
            for c1 in range(c0 + 1, K + 1):
                for plan, want, lazy in plans:
                    got = np.empty((c1 - c0, N), dtype=np.int64)
                    plan.apply(bt, stack[0, c0:c1], got, lazy=lazy,
                               channels=(c0, c1))
                    assert np.array_equal(got, want[c0:c1])
                got = np.empty((c1 - c0, N), dtype=np.int64)
                bt._fwd.apply_broadcast(bt, digit, got, channels=(c0, c1))
                assert np.array_equal(got, bcast[c0:c1])

    def test_multiply_bit_identical_under_threads(self, toy_context,
                                                  toy_keys, rng):
        params = toy_context.params
        evaluator = Evaluator(toy_context)
        a = toy_context.encrypt(
            Plaintext(rng.integers(0, params.t, params.n), params.t),
            toy_keys.public)
        b = toy_context.encrypt(
            Plaintext(rng.integers(0, params.t, params.n), params.t),
            toy_keys.public)
        with use_executor("serial"):
            want = evaluator.multiply(a, b, toy_keys.relin)
        with use_executor("threads", 3):
            got = evaluator.multiply(a, b, toy_keys.relin)
        assert np.array_equal(want.c0.residues, got.c0.residues)
        assert np.array_equal(want.c1.residues, got.c1.residues)


class TestProcessExecutor:
    def test_forward_inverse_bit_identical(self, primes, stack):
        executor = build_executor(ExecutionConfig("processes", 2))
        if executor.name != "processes":
            reasons = [f.reason for f in executor_fallbacks()]
            pytest.skip(f"process pool unavailable here: {reasons}")
        try:
            bt = basis_transformer(primes, N)
            with use_executor("serial"):
                want_fwd = bt.forward(stack)
                want_inv = bt.inverse(want_fwd)
            with use_executor(executor):
                got_fwd = bt.forward(stack)
                got_inv = bt.inverse(got_fwd)
                # Closure fan-outs must not cross the process boundary.
                assert inproc_executor() is None
            assert np.array_equal(want_fwd, got_fwd)
            assert np.array_equal(want_inv, got_inv)
            assert not executor.shares_address_space
        finally:
            executor.close()

    def test_worker_death_mid_dispatch_degrades_serially(self, primes,
                                                         stack):
        """Killing the pool under a live engine must not lose the
        answer: the dispatch reruns serially, the fallback is recorded,
        and every later dispatch stays on the serial path."""
        executor = build_executor(ExecutionConfig("processes", 2))
        if executor.name != "processes":
            reasons = [f.reason for f in executor_fallbacks()]
            pytest.skip(f"process pool unavailable here: {reasons}")
        try:
            bt = basis_transformer(primes, N)
            with use_executor("serial"):
                want_fwd = bt.forward(stack)
                want_inv = bt.inverse(want_fwd)
            with use_executor(executor):
                assert np.array_equal(bt.forward(stack), want_fwd)
                for proc in executor._procs:
                    proc.terminate()
                    proc.join(timeout=5.0)
                got_fwd = bt.forward(stack)  # dispatch into a dead pool
                got_inv = bt.inverse(got_fwd)  # degraded mode persists
            assert np.array_equal(got_fwd, want_fwd)
            assert np.array_equal(got_inv, want_inv)
            (fallback,) = executor_fallbacks()
            assert fallback.mode == "processes"
            assert "died mid-dispatch" in fallback.reason
        finally:
            executor.close()


class TestFallbacks:
    """Degradation must be loud, structured, and answer-preserving."""

    def test_unknown_mode_goes_serial_with_diagnostics(self):
        executor = build_executor(ExecutionConfig("gpu", 4))
        assert isinstance(executor, SerialExecutor)
        (fallback,) = executor_fallbacks()
        assert fallback.mode == "gpu" and fallback.workers == 4
        assert "unknown executor mode" in fallback.reason
        assert current_registry().value("executor_fallback_total") == 1.0

    def test_bad_worker_count_goes_serial(self):
        executor = build_executor(ExecutionConfig("threads", 0))
        assert isinstance(executor, SerialExecutor)
        (fallback,) = executor_fallbacks()
        assert "REPRO_WORKERS" in fallback.reason

    def test_pool_construction_failure_goes_serial(self, monkeypatch):
        import repro.parallel.shmem as shmem_mod

        def boom(workers):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(shmem_mod, "SharedMemoryProcessExecutor", boom)
        executor = build_executor(ExecutionConfig("processes", 2))
        assert isinstance(executor, SerialExecutor)
        (fallback,) = executor_fallbacks()
        assert fallback.mode == "processes"
        assert "no /dev/shm" in fallback.reason

    def test_results_survive_the_fallback(self, primes, stack):
        bt = basis_transformer(primes, N)
        with use_executor("serial"):
            want = bt.forward(stack)
        with use_executor("definitely-not-an-executor", 4) as executor:
            assert executor.name == "serial"
            got = bt.forward(stack)
        assert np.array_equal(want, got)


class TestScoping:
    def test_modes_catalogue(self):
        assert EXECUTOR_MODES == ("serial", "threads", "processes")

    def test_use_executor_nests_and_restores(self):
        outer = ThreadPoolExecutor(2)
        try:
            with use_executor(outer):
                assert active_executor() is outer
                with use_executor("serial"):
                    assert active_executor().name == "serial"
                assert active_executor() is outer
            assert active_executor() is not outer
        finally:
            outer.close()

    def test_tasks_resolve_serial_inside_workers(self):
        with use_executor("threads", 2) as executor:
            assert active_executor() is executor
            names = executor.map(
                lambda _: (in_worker(), active_executor().name), range(4))
        assert names == [(True, "serial")] * 4
        assert not in_worker()

    def test_run_as_worker_clears_flag_on_error(self):
        with pytest.raises(ValueError):
            _run_as_worker(lambda: (_ for _ in ()).throw(ValueError()))
        assert not in_worker()

    def test_inproc_executor_requires_shared_address_space(self):
        with use_executor("serial"):
            assert inproc_executor() is None
        with use_executor("threads", 2) as executor:
            assert inproc_executor() is executor


class TestInstrumentsAndSpans:
    def test_dispatch_instruments_recorded(self, primes, stack):
        registry = current_registry()
        bt = basis_transformer(primes, N)
        with use_executor("threads", 2):
            bt.forward(stack)
        assert registry.value("parallel_dispatch_total",
                              executor="threads") >= 1.0
        utilisation = registry.value("parallel_worker_utilisation",
                                     executor="threads")
        assert 0.0 < utilisation <= 1.0
        snapshot = registry.snapshot()
        assert snapshot["parallel_tiles_per_dispatch_count"] >= 1.0

    def test_tile_spans_on_per_worker_lanes(self, primes, stack):
        bt = basis_transformer(primes, N)
        tracer = Tracer()
        with use_executor("threads", 2), tracer.activate(), \
                tracer.span("root", kind="op"):
            bt.forward(stack)
        report = tracer.report()
        tiles = [s for s in report.root.walk() if s.kind == "tile"]
        assert tiles, "tiled dispatch emitted no tile spans"
        assert all(s.attrs["worker"].startswith("repro-w") for s in tiles)
        assert all(s.name == "forward.tile" for s in tiles)
        # Tile spans are scheduling detail, not transform accounting.
        assert "forward.tile" not in report.transform_totals()
        events = spans_to_chrome(report.root, process_name="test")
        validate_chrome_trace(events)
        tile_tids = {e["tid"] for e in events if e.get("cat") == "tile"}
        main_tids = {e["tid"] for e in events
                     if e.get("ph") == "X" and e.get("cat") != "tile"}
        assert tile_tids and not (tile_tids & main_tids)
        lanes = {e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert any(name.startswith("repro-w") for name in lanes)
