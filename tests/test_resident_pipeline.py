"""End-to-end NTT residency: encrypt, wire format, one domain at rest.

The invariants of the resident pipeline:

* resident encrypt is the *same* encryption: for identical randomness
  it converts bit-for-bit to the legacy ciphertext, decrypts to the
  same plaintext, and measures the same noise;
* the versioned NTT-domain wire format round-trips resident operands
  without an inverse transform, rejects a payload whose domain flag
  was tampered with, and still loads version-1 (coefficient) files;
* ciphertexts rest in the evaluation domain between ops: programs
  run from encrypt to decrypt with **zero** coefficient-domain
  round-trips, and an output or serialized-resident operand reused by
  later programs costs no forward transform, proved with exact
  transform-count telemetry;
* the simulated backend's cross-request resident-operand cache is
  bounded, hits on reuse, and prices cache hits as zero-transfer in
  the lowered job stream.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.api import LocalBackend, ResidentOperandCache, Session, SimulatedBackend
from repro.errors import EncodingError, ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.galois import rotation_element, slot_permutation
from repro.fv.sampler import discrete_gaussian, uniform_ternary
from repro.io import MAGIC, load_ciphertext, save_ciphertext
from repro.params import hpca19, mini, toy


def _rewrite_header(path: Path, out: Path, mutate) -> None:
    """Load a wire file, apply ``mutate`` to its JSON header, rewrite."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + header_len])
    mutate(header)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    out.write_bytes(MAGIC + struct.pack("<I", len(header_bytes))
                    + header_bytes + raw[12 + header_len:])


class TestResidentEncrypt:
    def test_resident_equals_legacy_bit_for_bit(self):
        params = mini()
        session = Session(params, seed=3)
        context, keys = session.context, session.keys
        plain = Plaintext.from_list([1, 0, 1, 1], params.n, params.t)
        rng = np.random.default_rng(11)
        u = uniform_ternary(rng, params.n)
        e1 = discrete_gaussian(rng, params.n, params.sigma)
        e2 = discrete_gaussian(rng, params.n, params.sigma)
        legacy = context.encrypt_with(plain, keys.public, u, e1, e2)
        resident = context.encrypt_with(plain, keys.public, u, e1, e2,
                                        resident=True)
        assert resident.ntt_resident and resident.domain == "ntt"
        assert legacy.domain == "coeff"
        back = context.to_coeff_ct(resident)
        for lp, rp in zip(legacy.parts, back.parts, strict=True):
            assert np.array_equal(lp.residues, rp.residues)

    def test_resident_decrypts_identically_same_noise(self):
        params = mini()
        session = Session(params, seed=5)
        context, keys = session.context, session.keys
        plain = Plaintext.from_list([1, 1, 0, 1], params.n, params.t)
        rng = np.random.default_rng(13)
        u = uniform_ternary(rng, params.n)
        e1 = discrete_gaussian(rng, params.n, params.sigma)
        e2 = discrete_gaussian(rng, params.n, params.sigma)
        legacy = context.encrypt_with(plain, keys.public, u, e1, e2)
        resident = context.encrypt_with(plain, keys.public, u, e1, e2,
                                        resident=True)
        m1, n1 = context.decrypt_with_noise(legacy, keys.secret)
        m2, n2 = context.decrypt_with_noise(resident, keys.secret)
        assert np.array_equal(m1.coeffs, m2.coeffs)
        assert n1 == n2

    def test_resident_encrypt_performs_no_inverse_transforms(self):
        from repro.nttmath.batch import transform_counts

        params = mini()
        session = Session(params, seed=7)
        before = transform_counts()
        session.context.encrypt(session.encode(5), session.keys.public,
                                resident=True)
        after = transform_counts()
        assert after["inverse_rows"] == before["inverse_rows"]
        assert after["forward_calls"] == before["forward_calls"] + 1


class TestNttWireFormat:
    def test_resident_roundtrip_preserves_domain_and_bits(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=9)
        handle = session.encrypt([4, 5, 6])
        ct = handle.node.cached
        path = tmp_path / "resident.ct"
        session.save_ciphertext(path, handle)
        restored = load_ciphertext(path, params)
        assert restored.ntt_resident
        for a, b in zip(ct.parts, restored.parts, strict=True):
            assert np.array_equal(a.residues, b.residues)
        assert list(session.decrypt(session.wrap(restored), size=3)) == \
            [4, 5, 6]

    def test_coefficient_roundtrip_is_version_2(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=11)
        ct = session.encrypt([7, 8]).ciphertext
        path = tmp_path / "coeff.ct"
        save_ciphertext(path, ct)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + header_len])
        assert header["version"] == 2
        assert header["domain"] == "coeff"
        restored = load_ciphertext(path, params)
        assert restored.domain == "coeff"

    def test_mislabelled_domain_is_rejected(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=13)
        ct = session.encrypt([1, 2]).ciphertext
        path = tmp_path / "coeff.ct"
        save_ciphertext(path, ct)
        evil = tmp_path / "mislabelled.ct"
        _rewrite_header(path, evil,
                        lambda h: h.__setitem__("domain", "ntt"))
        with pytest.raises(EncodingError, match="mislabelled|digest"):
            load_ciphertext(evil, params)

    def test_unknown_domain_and_future_version_rejected(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=15)
        path = tmp_path / "base.ct"
        save_ciphertext(path, session.encrypt([3]).ciphertext)
        weird = tmp_path / "weird.ct"
        _rewrite_header(path, weird,
                        lambda h: h.__setitem__("domain", "spectral"))
        with pytest.raises(EncodingError, match="domain"):
            load_ciphertext(weird, params)
        future = tmp_path / "future.ct"
        _rewrite_header(path, future,
                        lambda h: h.__setitem__("version", 99))
        with pytest.raises(EncodingError, match="version"):
            load_ciphertext(future, params)

    def test_version_1_files_still_load_as_coefficients(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=17)
        path = tmp_path / "v2.ct"
        ct = session.encrypt([9, 9]).ciphertext
        save_ciphertext(path, ct)
        v1 = tmp_path / "v1.ct"

        def strip(header):
            for key in ("version", "domain", "digest"):
                header.pop(key)

        _rewrite_header(path, v1, strip)
        restored = load_ciphertext(v1, params)
        assert restored.domain == "coeff"
        for a, b in zip(ct.parts, restored.parts, strict=True):
            assert np.array_equal(a.residues, b.residues)

    def test_mixed_domain_ciphertext_refuses_the_wire(self):
        from repro.fv.ciphertext import Ciphertext

        params = mini(t=257)
        session = Session(params, seed=19)
        ct = session.encrypt([1]).ciphertext
        mixed = Ciphertext((ct.c0, ct.c1.to_ntt()), params)
        assert mixed.domain == "mixed"
        with pytest.raises(ParameterError, match="mixed"):
            mixed.to_wire_bytes()


class TestZeroRoundTripAcrossPrograms:
    def test_serialized_resident_operand_never_leaves_ntt_domain(
            self, tmp_path):
        """The acceptance criterion: a serialized-resident operand
        reused across two programs performs zero coefficient-domain
        round-trips. Transform telemetry is exact: each run transforms
        only its fresh plaintext constant (k_q rows forward), never the
        operand (no forward: it arrived resident; no inverse: outputs
        rest resident)."""
        params = mini(t=257)
        session = Session(params, seed=21)
        k = params.k_q
        source = session.encrypt([1, 2, 3, 4])
        path = tmp_path / "operand.ct"
        session.save_ciphertext(path, source)
        operand = session.load_ciphertext(path)
        assert operand.node.cached.ntt_resident
        # verify=False: the assertion is about *execution*
        # transform economy; the verify phase's noise probe has
        # its own traced transforms.
        backend = LocalBackend(session, verify=False)
        first = backend.run(session.compile(operand * 3, name="p1",
                                            check=False))
        counts1 = dict(backend.last_transform_counts)
        second = backend.run(session.compile(operand * 5, name="p2",
                                             check=False))
        counts2 = dict(backend.last_transform_counts)
        for counts in (counts1, counts2):
            assert counts["forward_rows"] == k, counts
            assert counts["inverse_rows"] == 0, counts
        assert list(first.decrypt("out", size=4)) == [3, 6, 9, 12]
        assert list(second.decrypt("out", size=4)) == [5, 10, 15, 20]

    def test_lazy_resident_handle_saves_in_ntt_domain(self, tmp_path):
        """Regression: save_ciphertext materialises lazy handles, and
        their results rest resident, so a resident expression chain
        reaches the wire without an inverse transform."""
        params = mini(t=257)
        session = Session(params, seed=33)
        lazy = session.encrypt([6, 7]) * 3
        path = tmp_path / "lazy.ct"
        session.save_ciphertext(path, lazy)
        restored = load_ciphertext(path, params)
        assert restored.ntt_resident
        assert list(session.decrypt(session.wrap(restored), size=2)) == \
            [18, 21]

    def test_resident_outputs_serialise_without_conversion(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=23)
        backend = LocalBackend(session)
        h = session.encrypt([2, 4])
        result = backend.run(session.compile(h * 2, name="emit",
                                             check=False))
        out_ct = result.ciphertext("out")
        assert out_ct.ntt_resident
        path = tmp_path / "reply.ct"
        save_ciphertext(path, out_ct)
        restored = load_ciphertext(path, params)
        assert restored.ntt_resident
        assert list(session.decrypt(session.wrap(restored), size=2)) == \
            [4, 8]


class _Node:
    """Weak-referenceable stand-in for an ExprNode in cache unit tests."""


class TestLocalResidentCache:
    """The bounded, weakly keyed cache behind the simulated backend."""

    def test_cache_is_bounded_with_fifo_eviction(self):
        cache = ResidentOperandCache(limit=2)
        nodes = [_Node() for _ in range(3)]
        for node in nodes:
            cache.put(node, node)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert nodes[0] not in cache
        assert nodes[1] in cache and nodes[2] in cache
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["limit"] == 2

    def test_cache_entries_die_with_their_nodes(self):
        """The cache keys nodes weakly: dropping every handle to an
        operand frees its expression graph, and the entry (with its
        pinned ciphertext) disappears via the weakref callback."""
        import gc

        cache = ResidentOperandCache(limit=4)
        node = _Node()
        cache.put(node, "resident-form")
        assert len(cache) == 1
        del node
        gc.collect()
        assert len(cache) == 0

    def test_cache_identity_guard_and_refresh(self):
        cache = ResidentOperandCache(limit=4)
        node = _Node()
        cache.put(node, "first")
        cache.put(node, "second")  # refresh, not a second entry
        assert len(cache) == 1
        assert cache.get(node) == "second"
        assert cache.get(_Node()) is None
        assert cache.misses == 1 and cache.hits == 1
        with pytest.raises(ValueError):
            ResidentOperandCache(limit=0)


class TestSimulatedResidentCache:
    def test_repeat_run_prices_inputs_as_zero_transfer(self):
        params = toy(t=257)
        session = Session(params, seed=27)
        a = session.encrypt([1, 2, 3])
        b = session.encrypt([4, 5, 6])
        program = session.compile(a * b, name="sim", check=False)
        backend = SimulatedBackend.over_runtime(params)
        first = backend.run(program, requests=3)
        second = backend.run(program, requests=3)
        assert first.cache_hits == 0 and first.cache_misses == 2
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert backend.telemetry["resident_cache"]["hits"] == 2
        # Lowered pricing: the cached lowering uploads strictly less.
        cold = program.lower()
        warm = program.lower(resident_inputs=program.inputs)
        assert sum(op.polys_in for op in warm) < \
            sum(op.polys_in for op in cold)
        assert sum(op.cached_inputs for op in warm) == 2
        assert sum(op.cached_inputs for op in cold) == 0

    def test_shared_operand_across_two_programs_hits(self):
        params = toy(t=257)
        session = Session(params, seed=29)
        shared = session.encrypt([7, 7, 7])
        other = session.encrypt([1, 0, 1])
        backend = SimulatedBackend.over_runtime(params)
        run1 = backend.run(session.compile(shared + other, name="one",
                                           check=False), requests=2)
        run2 = backend.run(session.compile(shared * 2, name="two",
                                           check=False), requests=2)
        assert run1.cache_hits == 0
        assert run2.cache_hits == 1  # `shared` is still server-resident
        assert run2.cache_misses == 0

    def test_sum_slots_charges_upload_once_with_cache(self):
        params = toy(t=257)
        session = Session(params, seed=31)
        h = session.encrypt([1, 2, 3, 4])
        program = session.compile(h.sum_slots(), name="reduce",
                                  check=False)
        warm = program.lower(resident_inputs=program.inputs)
        assert sum(op.polys_in for op in warm) == 0
        assert sum(op.cached_inputs for op in warm) == 1


class TestResidentMultiplyLoop:
    """A Mult-heavy program never materialises coefficients — proved by
    the round-trip telemetry — and is bit-identical whichever domain
    its inputs arrive in, across serial and threaded executors.
    """

    @pytest.mark.parametrize("executor", [None, ("threads", 4)])
    def test_mult_heavy_program_zero_roundtrips(self, executor):
        from repro.parallel import ExecutionConfig

        params = mini()
        session = Session(params, seed=41)
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        c = session.encrypt([2, 2, 2, 2])
        d = session.encrypt([3, 1, 3, 1])
        program = session.compile((a * b) * (c * d), name="mult-heavy",
                                  check=False)
        config = (ExecutionConfig(mode=executor[0], workers=executor[1])
                  if executor else None)
        backend = LocalBackend(session, verify=False, executor=config)
        result = backend.run(program)
        counts = backend.last_transform_counts
        assert counts["roundtrip_rows"] == 0
        assert counts["roundtrip_calls"] == 0
        got = result.ciphertext("out")
        assert got.ntt_resident

        # The same inputs as coefficient-domain wraps: the backend
        # transforms them forward on first use, exactly, so the product
        # is bit-identical.
        wrapped = [session.wrap(h.ciphertext) for h in (a, b, c, d)]
        assert not any(h.node.cached.ntt_resident for h in wrapped)
        wa, wb, wc, wd = wrapped
        reference = LocalBackend(session, verify=False).run(session.compile(
            (wa * wb) * (wc * wd), name="mult-heavy-coeff", check=False
        ))
        want = reference.ciphertext("out")
        for got_part, want_part in zip(got.parts, want.parts, strict=True):
            assert np.array_equal(got_part.residues, want_part.residues)

    def test_resident_inputs_consumed_without_conversion(self):
        params = mini()
        session = Session(params, seed=43)
        a = session.encrypt([9, 8, 7])
        b = session.encrypt([1, 2, 3])
        program = session.compile(a * b, name="one-mult", check=False)
        backend = LocalBackend(session, verify=False)
        backend.run(program)
        counts = backend.last_transform_counts
        assert counts["roundtrip_rows"] == 0
        assert counts["roundtrip_calls"] == 0


def _mult_tree(session, rng, t):
    values = [rng.integers(0, t, session.params.n) for _ in range(4)]
    a, b, c, d = (session.encrypt(v) for v in values)
    va, vb, vc, vd = values
    return (a * b) * (c * d), (((va * vb) % t) * ((vc * vd) % t)) % t


def _hoisted_matvec(session, rng, t):
    """Halevi-Shoup mat-vec over four diagonals (three hoisted
    rotations of one source, each times a plaintext diagonal)."""
    n = session.params.n
    x = rng.integers(0, t, n)
    handle = session.encrypt(x)
    total, expected = None, np.zeros(n, dtype=np.int64)
    for k in range(4):
        diagonal = rng.integers(0, t, n)
        term = (handle if k == 0 else handle.rotate(k)) \
            * session.encode(diagonal)
        total = term if total is None else total + term
        perm = slot_permutation(n, rotation_element(k, n))
        expected = (expected + x[perm] * diagonal) % t
    return total, expected


class TestOneDomain:
    """Encrypt -> run -> decrypt with every ciphertext resting in the
    evaluation domain between ops."""

    @pytest.mark.parametrize("shape", [_mult_tree, _hoisted_matvec],
                             ids=["mult_tree", "hoisted_matvec"])
    def test_program_runs_without_roundtrips(self, shape):
        params = mini(t=65537)
        session = Session(params, seed=51)
        expr, expected = shape(session, np.random.default_rng(52), params.t)
        program = session.compile(expr, optimize=True)
        if shape is _hoisted_matvec:
            assert program.hoist_groups
        backend = LocalBackend(session)
        result = backend.run(program)
        assert backend.last_transform_counts["roundtrip_rows"] == 0
        assert result.ciphertext("out").ntt_resident
        assert np.array_equal(np.asarray(result.decrypt("out")), expected)

    def test_reused_output_costs_no_forward_transform(self):
        params = mini(t=257)
        session = Session(params, seed=53)
        first = LocalBackend(session).run(session.compile(
            session.encrypt([1, 2, 3]) * 2, name="first", check=False
        ))
        handle = first.handle("out")
        # Handle access hands out a coefficient copy and leaves the
        # graph cache resident.
        assert not handle.ciphertext.ntt_resident
        assert handle.node.cached.ntt_resident
        backend = LocalBackend(session, verify=False)
        second = backend.run(session.compile(handle + handle, name="second",
                                             check=False))
        counts = backend.last_transform_counts
        assert counts["forward_rows"] == 0, counts
        assert counts["roundtrip_rows"] == 0, counts
        assert list(second.decrypt("out", size=3)) == [4, 8, 12]

    def test_scalar_constant_transformed_once_per_session(self):
        """``handle * 3`` reuses one encoding of 3 across programs, so
        the plaintext NTT pool transforms it once and holds one entry."""
        params = hpca19()
        session = Session(params, seed=57)
        values = [1, 0, 1]
        ct = session.context.encrypt(session.encode(values),
                                     session.keys.public, resident=True)
        expected = [v * 3 % params.t for v in values]
        forward_rows = []
        for run in range(3):
            backend = LocalBackend(session, verify=False)
            result = backend.run(session.compile(
                session.wrap(ct) * 3, name=f"scale{run}", check=False))
            forward_rows.append(
                backend.last_transform_counts["forward_rows"])
            assert list(result.decrypt("out", size=3)) == expected
        assert forward_rows == [params.k_q, 0, 0]
        assert len(session._plain_ntt_pool) == 1

    def test_coefficient_input_is_transformed_once(self):
        """A wrapped coefficient-domain input is forward-transformed the
        first time an op consumes it, and the resident form is written
        back onto its node for every later consumer."""
        params = mini(t=257)
        session = Session(params, seed=55)
        ct = session.context.encrypt(session.encode([5, 6]),
                                     session.keys.public)
        assert not ct.ntt_resident
        x = session.wrap(ct)
        backend = LocalBackend(session, verify=False)
        first = backend.run(session.compile(x + x, name="ingest",
                                            check=False))
        assert backend.last_transform_counts["forward_rows"] == 2 * params.k_q
        assert x.node.cached.ntt_resident
        backend.run(session.compile(x - x, name="again", check=False))
        assert backend.last_transform_counts["forward_rows"] == 0
        assert list(first.decrypt("out", size=2)) == [10, 12]
