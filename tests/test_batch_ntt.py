"""Batched NTT engine and NTT-resident executor properties.

The invariants this PR rides on:

* the gemm-based :class:`~repro.nttmath.batch.BasisTransformer` is
  bit-exact against the per-row ``NegacyclicTransformer`` and the
  paper-literal ``ntt_iterative`` across ring sizes and basis shapes;
* the fused digit transform and the per-channel-scaled inverse equal
  their compose-by-hand definitions;
* the NTT-resident ``LocalBackend`` produces the same ciphertexts as
  the eager executor while performing strictly fewer transforms on
  rotation-heavy programs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.nttmath.batch as batch_mod
from repro.api import LocalBackend, Session
from repro.fv.galois import GaloisEngine
from repro.nttmath.batch import (
    MAX_ENGINE_N,
    _limb_plan,
    _plan_geometry,
    basis_transformer,
    batched_engine_ok,
    engine_fallbacks,
    engine_unsupported_reason,
    intt_rows,
    intt_rows_scaled,
    ntt_broadcast_rows,
    ntt_rows,
    reset_engine_fallbacks,
    transform_counts,
)
from repro.nttmath.ntt import NegacyclicTransformer, intt_iterative, ntt_iterative
from repro.nttmath.primes import find_ntt_primes
from repro.parallel import use_executor
from repro.params import mini, toy
from repro.poly.rns_poly import RnsPoly
from repro.rns.basis import basis_for

#: (n, k) shapes exercised by the equivalence tests: small/odd mixes of
#: ring degree and basis size, including single-limb and non-square n.
SHAPES = [(64, 1), (64, 3), (128, 2), (256, 5), (512, 4)]

fast_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _basis(n, k):
    return tuple(find_ntt_primes(30, n, k))


def _iterative_forward(primes, mat):
    """Independent oracle: per row, the psi twist followed by the
    paper-literal pure-Python ``ntt_iterative``."""
    n = mat.shape[-1]
    rows = []
    for p, row in zip(primes, mat, strict=True):
        tr = NegacyclicTransformer(n, p)
        twisted = [int(c) * int(psi) % p
                   for c, psi in zip(row, tr.psi_powers, strict=True)]
        rows.append(ntt_iterative(twisted, p, tr.omega))
    return np.array(rows, dtype=np.int64)


class TestBatchedTransformEquivalence:
    @pytest.mark.parametrize("n,k", SHAPES)
    def test_forward_matches_per_row_and_iterative(self, n, k):
        primes = _basis(n, k)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(n * k)
        mat = rng.integers(0, bt.primes_col, size=(k, n))
        got = bt.forward(mat)
        for row, p in enumerate(primes):
            per_row = NegacyclicTransformer(n, p).forward(mat[row])
            assert np.array_equal(got[row], per_row)
        assert np.array_equal(got, _iterative_forward(primes, mat))

    @pytest.mark.parametrize("n,k", SHAPES)
    def test_inverse_matches_per_row_and_roundtrips(self, n, k):
        primes = _basis(n, k)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(n + k)
        mat = rng.integers(0, bt.primes_col, size=(k, n))
        values = bt.forward(mat)
        back = bt.inverse(values)
        assert np.array_equal(back, mat)
        for row, p in enumerate(primes):
            tr = NegacyclicTransformer(n, p)
            assert np.array_equal(back[row], tr.inverse(values[row]))
            # Plain (non-negacyclic) INTT agreement on the untwisted
            # transform ties the engine to paper Algorithm 1's inverse.
            plain = ntt_iterative(list(map(int, mat[row])), p, tr.omega)
            assert intt_iterative(plain, p, tr.omega) == \
                [int(v) for v in mat[row]]

    @pytest.mark.parametrize("n,k", [(64, 3), (256, 4)])
    def test_stacked_equals_individual(self, n, k):
        primes = _basis(n, k)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(5)
        stack = rng.integers(0, bt.primes_col, size=(4, k, n))
        fwd = bt.forward(stack)
        inv = bt.inverse(fwd)
        for j in range(4):
            assert np.array_equal(fwd[j], bt.forward(stack[j]))
        assert np.array_equal(inv, stack)

    @fast_settings
    @given(st.integers(0, 2**31 - 1), st.integers(0, 6))
    def test_forward_property_random_rows(self, seed, shift):
        n, k = 128, 3
        primes = _basis(n, k)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(seed)
        mat = np.roll(rng.integers(0, bt.primes_col, size=(k, n)), shift,
                      axis=1) % bt.primes_col
        assert np.array_equal(bt.forward(mat),
                              _iterative_forward(primes, mat))

    def test_lazy_forward_is_congruent(self):
        params = mini()
        primes = params.q_primes
        bt = basis_transformer(primes, params.n)
        rng = np.random.default_rng(9)
        mat = rng.integers(0, bt.primes_col, size=(len(primes), params.n))
        canon = bt.forward(mat)
        lazy = bt.forward(mat, lazy=True)
        assert lazy.max() < 2 * max(primes)
        assert np.array_equal(lazy % bt.primes_col, canon)

    def test_broadcast_rows_equals_reduce_then_transform(self):
        params = mini()
        primes = params.q_primes
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 1 << 30, size=(5, params.n))
        got = ntt_broadcast_rows(primes, rows)
        primes_col = np.array(primes, dtype=np.int64)[:, None]
        expected = ntt_rows(primes,
                            rows[:, None, :] % primes_col[None, :, :])
        assert np.array_equal(got, expected)

    def test_scaled_inverse_equals_compose(self):
        params = mini()
        primes = params.q_primes + params.p_primes
        bt = basis_transformer(primes, params.n)
        rng = np.random.default_rng(13)
        mat = rng.integers(0, bt.primes_col, size=(len(primes), params.n))
        constants = tuple(int(c) for c in rng.integers(1, 1 << 30,
                                                       len(primes)))
        got = intt_rows_scaled(primes, mat, constants)
        consts_col = np.array(
            [c % p for c, p in zip(constants, primes, strict=True)], dtype=np.int64
        )[:, None]
        expected = (intt_rows(primes, mat) * consts_col) % bt.primes_col
        assert np.array_equal(got, expected)


class TestLargeRingEngine:
    """The generalised engine covers every supported n up to 32768.

    The acceptance bar of the large-ring PR: batched transforms stay
    bit-identical to the paper-literal ``ntt_iterative`` and the
    per-row ``NegacyclicTransformer`` at n = 8192, 16384, and 32768
    with 30-bit primes — the degrees the old four-step split either
    served with no headroom or silently refused.
    """

    @pytest.mark.parametrize("n", [8192, 16384, 32768])
    def test_large_n_matches_per_row_and_iterative(self, n):
        primes = _basis(n, 2)
        assert batched_engine_ok(primes, n)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(n)
        mat = rng.integers(0, bt.primes_col, size=(2, n))
        got = bt.forward(mat)
        assert np.array_equal(bt.inverse(got), mat)
        lazy = bt.forward(mat, lazy=True)
        assert lazy.max() < 2 * max(primes)
        assert np.array_equal(lazy % bt.primes_col, got)
        for row, p in enumerate(primes):
            tr = NegacyclicTransformer(n, p)
            assert np.array_equal(got[row], tr.forward(mat[row]))
        # Paper Algorithm 1, pure-Python, on one row: the ground truth.
        assert np.array_equal(got[:1],
                              _iterative_forward(primes[:1], mat[:1]))

    @pytest.mark.parametrize("n", [8192, 32768])
    def test_large_n_broadcast_and_scaled_inverse(self, n):
        primes = _basis(n, 3)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(n + 1)
        rows = rng.integers(0, 1 << 30, size=(2, n))
        got = ntt_broadcast_rows(primes, rows)
        primes_col = bt.primes_col
        expected = ntt_rows(primes, rows[:, None, :] % primes_col[None])
        assert np.array_equal(got, expected)
        mat = rng.integers(0, primes_col, size=(3, n))
        constants = tuple(int(c) for c in rng.integers(1, 1 << 30, 3))
        scaled = intt_rows_scaled(primes, mat, constants)
        consts_col = np.array(
            [c % p for c, p in zip(constants, primes, strict=True)], dtype=np.int64
        )[:, None]
        assert np.array_equal(
            scaled, (intt_rows(primes, mat) * consts_col) % primes_col
        )

    def test_limb_plans_stay_exact_by_construction(self):
        """The per-step limb plans prove their own bound: the worst
        partial sum (plus the reduction's one-modulus overshoot) stays
        at or below 2^53."""
        max_prime = (1 << 30) - 35
        for length, max_value in [(128, (1 << 30) - 1),
                                  (256, (1 << 30) - 1),
                                  (64, 2 * max_prime - 1),
                                  (4096, (1 << 30) - 1)]:
            split = _limb_plan(length, max_value, max_prime)
            assert split is not None
            top = max_value >> (split.bits * (split.count - 1))
            rest = (1 << split.bits) - 1
            worst = length * (max_prime - 1) * (
                top + (split.count - 1) * rest
            )
            assert worst + max_prime <= 1 << 53

    def test_geometry_matches_pre_generalisation_layouts(self):
        """n <= 16384 keeps the exact pre-PR four-step factorisation
        (two stages of two 15-bit limbs, n1 = 2^ceil(log2(n)/2));
        n = 32768 opens the three-stage split, whose balanced 32-point
        sub-DFTs cost 192 gemm flops per element instead of the
        wide-limb four-step's 1024."""
        max_prime = max(_basis(4096, 1))
        for n, n1 in [(4096, 64), (8192, 128), (16384, 128)]:
            g = _plan_geometry(n, max_prime)
            assert g.factors == (n1, n // n1)
            assert all(s.split.count == 2 for s in g.stages)
        g = _plan_geometry(32768, max_prime)
        assert len(g.factors) == 3
        assert np.prod(g.factors) == 32768
        assert all(f <= 128 for f in g.factors)
        assert all(s.split.count == 2 for s in g.stages)

    def test_unsupported_reasons(self):
        primes = _basis(64, 2)
        assert engine_unsupported_reason(primes, 64) is None
        assert "envelope" in engine_unsupported_reason(
            primes, MAX_ENGINE_N * 2
        )
        wide = tuple(find_ntt_primes(31, 64, 1))
        assert "4q < 2^32" in engine_unsupported_reason(wide, 64)


@pytest.fixture
def blocked(monkeypatch):
    """Build the cached transformer of a basis under a patched
    channel-block size (the tile path looks the transformer up in the
    same cache, so threads tiles see the patched blocks too)."""

    def build(primes, n, block):
        monkeypatch.setattr(batch_mod, "_BLOCK_ELEMS", block * n)
        basis_transformer.cache_clear()
        bt = basis_transformer(primes, n)
        assert bt.block == block
        return bt

    yield build
    basis_transformer.cache_clear()


class TestChannelBlocks:
    """Walking a polynomial in channel blocks only partitions
    independent channels: every block size, uneven last blocks
    included, is bit-exact against the paper-literal oracle."""

    @pytest.mark.parametrize("params", [toy(), mini()], ids=["toy", "mini"])
    def test_every_block_size_matches_iterative(self, params, blocked):
        primes = params.q_primes + params.p_primes
        n, k = params.n, len(primes)
        col = np.array(primes, dtype=np.int64)[:, None]
        rng = np.random.default_rng(n + k)
        mat = rng.integers(0, col, size=(k, n))
        digits = rng.integers(0, 1 << 30, size=(3, n))
        consts = rng.integers(1, 1 << 30, size=k)
        constants = tuple(int(c) for c in consts)
        want_fwd = _iterative_forward(primes, mat)
        want_bcast = np.stack([_iterative_forward(primes, row % col)
                               for row in digits])
        want_scaled = mat * (consts[:, None] % col) % col
        reference_lazy = None
        for block in range(k, 0, -1):
            bt = blocked(primes, n, block)
            widths = [b1 - b0 for b0, b1 in bt._blocks(0, k)]
            assert sum(widths) == k and max(widths) <= block
            assert len(widths) == -(-k // block)
            assert np.array_equal(bt.forward(mat), want_fwd)
            lazy = bt.forward(mat, lazy=True)
            assert lazy.max() < 2 * max(primes)
            assert np.array_equal(lazy % col, want_fwd)
            if reference_lazy is None:
                reference_lazy = lazy
            assert np.array_equal(lazy, reference_lazy)
            assert np.array_equal(bt.inverse(want_fwd), mat)
            assert np.array_equal(bt.inverse_scaled(want_fwd, constants),
                                  want_scaled)
            assert np.array_equal(bt.forward_broadcast(digits[:1]),
                                  want_bcast[:1])
            assert np.array_equal(bt.forward_broadcast(digits), want_bcast)
            lazy_bcast = bt.forward_broadcast(digits, lazy=True)
            assert np.array_equal(lazy_bcast % col, want_bcast)

    @pytest.mark.parametrize("block", [1, 2, 4])
    def test_thread_tiles_match_serial(self, blocked, monkeypatch, block):
        monkeypatch.setattr(batch_mod, "PARALLEL_MIN_WORK", 1)
        params = mini()
        primes = params.q_primes + params.p_primes
        n, k = params.n, len(primes)
        bt = blocked(primes, n, block)
        rng = np.random.default_rng(block)
        stack = rng.integers(0, bt.primes_col, size=(2, k, n))
        digits = rng.integers(0, 1 << 30, size=(3, n))
        constants = tuple(int(p) - 11 for p in primes)

        def transforms():
            return [bt.forward(stack), bt.forward(stack, lazy=True),
                    bt.inverse(stack), bt.inverse_scaled(stack, constants),
                    bt.forward_broadcast(digits),
                    bt.forward_broadcast(digits[:1], lazy=True)]

        with use_executor("serial"):
            want = transforms()
        with use_executor("threads", 3):
            got = transforms()
        for expected, actual in zip(want, got, strict=True):
            assert np.array_equal(expected, actual)

    def test_numpy_buffer_setting_is_restored(self):
        """Transforms of short rows scope numpy's ufunc buffer to one
        row and hand the caller's setting back."""
        n, k = 256, 3
        bt = basis_transformer(_basis(n, k), n)
        before = np.getbufsize()
        rng = np.random.default_rng(3)
        bt.forward(rng.integers(0, bt.primes_col, size=(2, k, n)))
        bt.forward_broadcast(rng.integers(0, 1 << 30, size=(3, n)))
        assert np.getbufsize() == before

    def test_scratch_is_block_sized(self):
        """The per-thread scratch holds one channel block and the
        modulus tables are broadcast columns, not (k, n) planes."""
        n, k = 8192, 4
        bt = basis_transformer(_basis(n, k), n)
        assert bt.block == 3
        limbs, gemm_out, planes = bt._buffers()
        for buf in (*limbs, *gemm_out, *planes):
            assert buf.shape[0] <= bt.block
        assert all(col.shape == (k, 1) for col in bt._mod_tables)


class TestFallbackDiagnostics:
    """Satellite: the large-ring fallback is no longer silent."""

    def test_fallback_records_diagnostic_and_logs(self, caplog):
        reset_engine_fallbacks()
        # A 31-bit NTT-friendly prime: the per-row path serves it, the
        # gemm engine's lazy-reduction headroom does not.
        primes = tuple(find_ntt_primes(31, 64, 1))
        mat = np.arange(64, dtype=np.int64)[None, :] % primes[0]
        before = transform_counts()["fallback_calls"]
        with caplog.at_level("WARNING", logger="repro.nttmath.batch"):
            out = ntt_rows(primes, mat)
        assert np.array_equal(
            intt_rows(primes, out), mat
        )  # per-row path is still exact
        events = engine_fallbacks()
        assert events and events[-1].max_prime_bits == 31
        assert "4q < 2^32" in events[-1].reason
        assert transform_counts()["fallback_calls"] >= before + 2
        assert any("per-row" in record.message
                   for record in caplog.records)
        reset_engine_fallbacks()


class TestRnsPolyAliasing:
    def test_constructor_does_not_mutate_caller_array(self):
        """Regression: ``residues %= primes`` used to write through to
        the caller's array whenever np.asarray returned it unchanged."""
        params = toy()
        basis = basis_for(params.q_primes)
        original = np.full((basis.size, params.n),
                           max(params.q_primes) + 5, dtype=np.int64)
        snapshot = original.copy()
        poly = RnsPoly(basis, original)
        assert np.array_equal(original, snapshot)
        assert poly.residues.max() < max(params.q_primes)

    def test_trusted_adopts_without_copy(self):
        params = toy()
        basis = basis_for(params.q_primes)
        rows = np.zeros((basis.size, params.n), dtype=np.int64)
        poly = RnsPoly.trusted(basis, rows)
        assert poly.residues is rows


class TestNttResidentBackend:
    def test_outputs_leave_in_coefficient_domain(self):
        """Outputs rest NTT-resident; the handle boundary hands out a
        coefficient-domain copy."""
        params = mini(t=257)
        session = Session(params, seed=23)
        a = session.encrypt([1, 2, 3])
        program = session.compile(a.rotate(1) * 2, name="resident-out")
        result = LocalBackend(session).run(program)
        ct = result.handle("out").ciphertext
        assert not ct.ntt_resident
        assert result.ciphertext("out").ntt_resident
        ct.to_bytes()  # serialisable without conversion

    def test_plain_pool_caches_constant_transforms(self):
        params = mini(t=257)
        session = Session(params, seed=25)
        plain = session.encode(7)
        first = session.plain_ntt(plain)
        assert session.plain_ntt(plain) is first
        delta_first = session.plain_delta_ntt(plain)
        assert session.plain_delta_ntt(plain) is delta_first

    def test_resident_rotation_bit_exact(self):
        params = mini(t=257)
        session = Session(params, seed=27)
        context = session.context
        engine = GaloisEngine(context)
        keys = session.keys
        rot = engine.rotation_keygen(keys.secret, [2])
        ct = session.encrypt([5, 6, 7]).ciphertext
        eager = engine.apply(ct, rot[2])
        resident = context.to_coeff_ct(
            engine.apply_resident(context.to_ntt_ct(ct), rot[2])
        )
        assert np.array_equal(eager.c0.residues, resident.c0.residues)
        assert np.array_equal(eager.c1.residues, resident.c1.residues)


class TestNarrowPrimeFallbacks:
    def test_lift_narrow_primes_stay_exact(self):
        """Primes below 30 bits have >60-significant-bit reciprocals,
        which the lift gemm's four 15-bit limbs cannot carry — the
        context must route them to the reference loop (regression for
        the gemm_safe guard)."""
        from repro.nttmath.primes import find_ntt_primes
        from repro.rns.basis import lift_context
        from repro.rns.lift import lift_hps, lift_hps_reference

        n = 64
        source = tuple(find_ntt_primes(28, n, 3))
        target = source + tuple(find_ntt_primes(29, n, 2))
        ctx = lift_context(source, target)
        assert not ctx.gemm_safe
        rng = np.random.default_rng(31)
        mat = rng.integers(
            0, np.array(source, dtype=np.int64)[:, None], size=(3, n)
        )
        assert np.array_equal(lift_hps(ctx, mat),
                              lift_hps_reference(ctx, mat))
