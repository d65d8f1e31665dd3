"""Tests for the FV scheme: samplers, encoders, keygen, encrypt/decrypt,
additive operations, and the textbook cross-check (paper Sec. II-B)."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError, ParameterError
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import BatchEncoder, IntegerEncoder, Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.keys import SecretKey
from repro.fv.reference import TextbookFv
from repro.fv.sampler import (
    discrete_gaussian,
    uniform_mod,
    uniform_rns_rows,
    uniform_ternary,
)
from repro.fv.scheme import FvContext
from repro.nttmath.batch import intt_rows, ntt_rows, transform_counts
from repro.params import hpca19, mini, table5_large, toy
from repro.poly.rns_poly import RnsPoly
from repro.rns.decrypt import hps_decrypt_round
from repro.utils import round_half_away


class TestSamplers:
    def test_ternary_range(self, rng):
        samples = uniform_ternary(rng, 10_000)
        assert set(np.unique(samples)) <= {-1, 0, 1}

    def test_ternary_roughly_uniform(self, rng):
        samples = uniform_ternary(rng, 30_000)
        for value in (-1, 0, 1):
            assert 0.30 < np.mean(samples == value) < 0.37

    def test_gaussian_std(self, rng):
        sigma = 102.0
        samples = discrete_gaussian(rng, 100_000, sigma)
        assert abs(samples.std() - sigma) / sigma < 0.03
        assert abs(samples.mean()) < 2.0

    def test_gaussian_tail_cut(self, rng):
        sigma = 10.0
        samples = discrete_gaussian(rng, 100_000, sigma)
        assert np.abs(samples).max() <= 10 * sigma + 1

    def test_gaussian_rejects_bad_sigma(self, rng):
        with pytest.raises(ParameterError):
            discrete_gaussian(rng, 10, 0.0)

    def test_uniform_mod_range(self, rng):
        samples = uniform_mod(rng, 10_000, 97)
        assert samples.min() >= 0 and samples.max() < 97

    def test_uniform_rns_rows_shape(self, rng, toy_params):
        rows = uniform_rns_rows(rng, toy_params.n, toy_params.q_primes)
        assert rows.shape == (toy_params.k_q, toy_params.n)
        for row, prime in zip(rows, toy_params.q_primes, strict=True):
            assert row.max() < prime

    def test_determinism(self):
        a = uniform_ternary(np.random.default_rng(5), 100)
        b = uniform_ternary(np.random.default_rng(5), 100)
        assert np.array_equal(a, b)


class TestPlaintext:
    def test_reduction(self):
        plain = Plaintext(np.array([5, -1, 2]), 2)
        assert plain.coeffs.tolist() == [1, 1, 0]

    def test_from_list_pads(self):
        plain = Plaintext.from_list([1, 1], 8, 2)
        assert plain.coeffs.tolist() == [1, 1, 0, 0, 0, 0, 0, 0]

    def test_from_list_rejects_overflow(self):
        with pytest.raises(EncodingError):
            Plaintext.from_list([1] * 9, 8, 2)

    def test_equality(self):
        a = Plaintext.from_list([1], 4, 2)
        b = Plaintext.from_list([1], 4, 2)
        assert a == b
        assert a != Plaintext.from_list([0], 4, 2)


class TestIntegerEncoder:
    @pytest.fixture(scope="class")
    def encoder(self):
        return IntegerEncoder(mini(t=65537), base=2)

    def test_roundtrip_positive(self, encoder):
        for value in (0, 1, 7, 255, 12345):
            assert encoder.decode(encoder.encode(value)) == value

    def test_roundtrip_negative(self, encoder):
        for value in (-1, -9, -4096):
            assert encoder.decode(encoder.encode(value)) == value

    @given(st.integers(-10**6, 10**6))
    def test_roundtrip_property(self, value):
        encoder = IntegerEncoder(mini(t=65537), base=2)
        assert encoder.decode(encoder.encode(value)) == value

    def test_base3(self):
        encoder = IntegerEncoder(mini(t=65537), base=3)
        assert encoder.decode(encoder.encode(1000)) == 1000

    def test_rejects_tiny_base(self):
        with pytest.raises(ParameterError):
            IntegerEncoder(mini(t=65537), base=1)


class TestBatchEncoder:
    @pytest.fixture(scope="class")
    def encoder(self):
        return BatchEncoder(mini(t=65537))

    def test_roundtrip(self, encoder, rng):
        values = rng.integers(0, 65537, encoder.slot_count)
        decoded = encoder.decode(encoder.encode(values))
        assert np.array_equal(decoded, values)

    def test_partial_fill(self, encoder):
        decoded = encoder.decode(encoder.encode([1, 2, 3]))
        assert decoded[:3].tolist() == [1, 2, 3]
        assert np.all(decoded[3:] == 0)

    def test_slotwise_add_structure(self, encoder):
        """encode(a) + encode(b) decodes to slot-wise a + b."""
        a = np.arange(encoder.slot_count) % 65537
        b = (np.arange(encoder.slot_count) * 3) % 65537
        summed = Plaintext(
            (encoder.encode(a).coeffs + encoder.encode(b).coeffs) % 65537,
            65537,
        )
        assert np.array_equal(encoder.decode(summed), (a + b) % 65537)

    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(ParameterError):
            BatchEncoder(mini(t=257))  # 256 not divisible by 2n = 512

    def test_rejects_too_many_values(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode(np.zeros(encoder.slot_count + 1))


class TestEncryptDecrypt:
    def test_roundtrip(self, toy_context, toy_keys, rng):
        params = toy_context.params
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        assert toy_context.decrypt(ct, toy_keys.secret) == plain

    def test_fresh_noise_is_small(self, toy_context, toy_keys):
        params = toy_context.params
        plain = Plaintext.zero(params.n, params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        _, noise = toy_context.decrypt_with_noise(ct, toy_keys.secret)
        # Fresh noise ~ 2*n*sigma; far below the q/(2t) threshold.
        assert 0 < noise < params.q // (2 * params.t) // 2**40

    def test_distinct_randomness(self, toy_context, toy_keys):
        params = toy_context.params
        plain = Plaintext.zero(params.n, params.t)
        ct1 = toy_context.encrypt(plain, toy_keys.public)
        ct2 = toy_context.encrypt(plain, toy_keys.public)
        assert not np.array_equal(ct1.c0.residues, ct2.c0.residues)

    def test_wrong_plaintext_ring_rejected(self, toy_context, toy_keys):
        bad = Plaintext.zero(toy_context.params.n * 2, toy_context.params.t)
        with pytest.raises(ParameterError):
            toy_context.encrypt(bad, toy_keys.public)

    def test_add_homomorphism(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.add(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
        )
        expected = Plaintext((a.coeffs + b.coeffs) % params.t, params.t)
        assert toy_context.decrypt(ct, toy_keys.secret) == expected

    def test_sub_homomorphism(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.sub(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
        )
        expected = Plaintext((a.coeffs - b.coeffs) % params.t, params.t)
        assert toy_context.decrypt(ct, toy_keys.secret) == expected

    def test_negate(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.negate(toy_context.encrypt(a, toy_keys.public))
        expected = Plaintext((-a.coeffs) % params.t, params.t)
        assert toy_context.decrypt(ct, toy_keys.secret) == expected

    def test_add_plain(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.add_plain(
            toy_context.encrypt(a, toy_keys.public), b
        )
        expected = Plaintext((a.coeffs + b.coeffs) % params.t, params.t)
        assert toy_context.decrypt(ct, toy_keys.secret) == expected

    def test_mul_plain(self, toy_context, toy_keys):
        params = toy_context.params
        a = Plaintext.from_list([1, 1], params.n, params.t)
        b = Plaintext.from_list([0, 1], params.n, params.t)  # times x
        ct = toy_context.mul_plain(
            toy_context.encrypt(a, toy_keys.public), b
        )
        decrypted = toy_context.decrypt(ct, toy_keys.secret)
        assert decrypted.coeffs[:3].tolist() == [0, 1, 1]

    def test_size_mismatch_rejected(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext.zero(params.n, params.t)
        ct = toy_context.encrypt(a, toy_keys.public)
        from repro.fv.ciphertext import Ciphertext
        three = Ciphertext((ct.c0, ct.c1, ct.c0), params)
        with pytest.raises(ParameterError):
            toy_context.add(ct, three)


class TestTextbookCrossCheck:
    """Bit-level agreement between the RNS path and exact big-int FV."""

    def test_encrypt_bit_exact(self, toy_context, toy_keys, rng):
        params = toy_context.params
        textbook = TextbookFv(params)
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        u = uniform_ternary(rng, params.n)
        e1 = discrete_gaussian(rng, params.n, params.sigma)
        e2 = discrete_gaussian(rng, params.n, params.sigma)
        rns_ct = toy_context.encrypt_with(plain, toy_keys.public, u, e1, e2)
        p0 = textbook.poly_from_rns(toy_keys.public.p0)
        p1 = textbook.poly_from_rns(toy_keys.public.p1)
        c0, c1 = textbook.encrypt_with(plain, p0, p1, u, e1, e2)
        assert list(c0.coeffs) == rns_ct.c0.to_int_coeffs()
        assert list(c1.coeffs) == rns_ct.c1.to_int_coeffs()

    def test_decrypt_agreement(self, toy_context, toy_keys, rng):
        params = toy_context.params
        textbook = TextbookFv(params)
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        s_poly = textbook.poly_from_rns(toy_keys.secret.rns)
        tb_plain = textbook.decrypt(textbook.ciphertext_from_rns(ct), s_poly)
        assert tb_plain == toy_context.decrypt(ct, toy_keys.secret)

    def test_public_key_relation(self, toy_context, toy_keys):
        """p0 + p1*s must equal -e (small)."""
        textbook = TextbookFv(toy_context.params)
        s = textbook.poly_from_rns(toy_keys.secret.rns)
        p0 = textbook.poly_from_rns(toy_keys.public.p0)
        p1 = textbook.poly_from_rns(toy_keys.public.p1)
        residue = p0 + p1 * s
        sigma = toy_context.params.sigma
        assert residue.infinity_norm() < 20 * sigma + 20

    @pytest.mark.parametrize("raw", [False, True])
    def test_noise_matches_textbook_after_mult(self, toy_context, toy_keys,
                                               rng, raw):
        """Plaintext and integer noise agree with the big-integer FV on a
        real product: relinearised (two parts) or raw (three parts)."""
        params = toy_context.params
        textbook = TextbookFv(params)
        evaluator = Evaluator(toy_context)
        a, b = (toy_context.encrypt(
            Plaintext(rng.integers(0, params.t, params.n), params.t),
            toy_keys.public) for _ in range(2))
        ct = (evaluator.multiply_raw(a, b) if raw
              else evaluator.multiply(a, b, toy_keys.relin))
        assert ct.size == (3 if raw else 2)
        s_poly = textbook.poly_from_rns(toy_keys.secret.rns)
        want = textbook.decrypt_with_noise(textbook.ciphertext_from_rns(ct),
                                           s_poly)
        plain, noise = toy_context.decrypt_with_noise(ct, toy_keys.secret)
        assert plain == want[0]
        assert noise == want[1] > 0

    def test_secret_key_is_ternary(self, toy_keys):
        assert set(np.unique(toy_keys.secret.coeffs)) <= {-1, 0, 1}


class TestDeterminism:
    def test_same_seed_same_keys(self, toy_params):
        ctx_a = FvContext(toy_params, seed=7)
        ctx_b = FvContext(toy_params, seed=7)
        keys_a = ctx_a.keygen()
        keys_b = ctx_b.keygen()
        assert np.array_equal(keys_a.secret.coeffs, keys_b.secret.coeffs)
        assert np.array_equal(keys_a.public.p0.residues,
                              keys_b.public.p0.residues)

    def test_different_seed_different_keys(self, toy_params):
        keys_a = FvContext(toy_params, seed=7).keygen()
        keys_b = FvContext(toy_params, seed=8).keygen()
        assert not np.array_equal(keys_a.secret.coeffs,
                                  keys_b.secret.coeffs)


# -- HPS decryption against the big-integer path -----------------------------------

PARAM_SETS = {"toy": toy, "mini": mini, "hpca19": hpca19,
              "table5_large": table5_large}


def big_int_decrypt(params, w_rows):
    """The big-integer decryption HPS rounding replaced: CRT every
    column, round half away from zero, then the centered noise loop."""
    basis = FvContext(params).q_basis
    q, t = params.q, params.t
    w_coeffs = basis.reconstruct_coeffs_centered(w_rows)
    m_coeffs = [round_half_away(t * w, q) % t for w in w_coeffs]
    noise = 0
    for w, m in zip(w_coeffs, m_coeffs, strict=True):
        diff = (w - params.delta * m) % q
        if diff > q // 2:
            diff = q - diff
        noise = max(noise, diff)
    return m_coeffs, noise


@lru_cache(maxsize=None)
def hps_case(name, t):
    """A context and a ternary secret (no public or relin keys)."""
    context = FvContext(PARAM_SETS[name](t=t), seed=3)
    params = context.params
    coeffs = uniform_ternary(np.random.default_rng(4), params.n)
    rows = coeffs[None, :] % context.q_basis.primes_col
    secret = SecretKey(coeffs=coeffs, rns=RnsPoly(context.q_basis, rows),
                       ntt_rows=ntt_rows(params.q_primes, rows))
    return context, secret


def ciphertext_with_phase(context, secret, w_rows, rng, size=2):
    """A ciphertext whose phase ``c0 + c1*s (+ c2*s^2)`` is ``w_rows``:
    random c1 (and c2), c0 solved for."""
    params = context.params
    primes_col = context.q_basis.primes_col
    others = [uniform_rns_rows(rng, params.n, params.q_primes)
              for _ in range(size - 1)]
    acc = np.zeros_like(w_rows)
    s_power = secret.ntt_rows
    for part in others:
        acc = (acc + ntt_rows(params.q_primes, part) * s_power) % primes_col
        s_power = (s_power * secret.ntt_rows) % primes_col
    c0 = (w_rows - intt_rows(params.q_primes, acc)) % primes_col
    return Ciphertext(tuple(RnsPoly(context.q_basis, rows)
                            for rows in [c0, *others]), params)


def garbage_rows(context, rng):
    params = context.params
    return uniform_rns_rows(rng, params.n, params.q_primes)


@pytest.mark.parametrize("t", [2, 256, 65537])
@pytest.mark.parametrize("name", list(PARAM_SETS))
class TestHpsDecryption:
    """``decrypt_with_noise`` returns the bit-identical plaintext and the
    identical integer noise of the big-integer path."""

    def test_garbage_residues(self, name, t, rng):
        context, secret = hps_case(name, t)
        w_rows = garbage_rows(context, rng)
        plain, noise = context.decrypt_with_noise(
            ciphertext_with_phase(context, secret, w_rows, rng), secret)
        m_coeffs, want = big_int_decrypt(context.params, w_rows)
        assert plain.coeffs.tolist() == m_coeffs
        assert noise == want
        # Uniform phases carry noise at the q/(2t) decryption threshold.
        threshold = context.params.q // (2 * t)
        assert threshold.bit_length() - 4 <= noise.bit_length() \
            <= threshold.bit_length()

    @pytest.mark.parametrize("bound", [0, 1, 2**40])
    def test_known_noise(self, name, t, bound, rng):
        context, secret = hps_case(name, t)
        params = context.params
        m = rng.integers(0, t, params.n)
        e = rng.integers(-bound, bound + 1, params.n)
        e[:2] = (bound, -bound)
        w_rows = (context.delta_rows * m + e) % context.q_basis.primes_col
        plain, noise = context.decrypt_with_noise(
            ciphertext_with_phase(context, secret, w_rows, rng), secret)
        assert plain.coeffs.tolist() == m.tolist()
        assert noise == bound
        assert (plain.coeffs.tolist(), noise) == \
            big_int_decrypt(params, w_rows)

    def test_three_part_ciphertext(self, name, t, rng):
        context, secret = hps_case(name, t)
        w_rows = garbage_rows(context, rng)
        ct = ciphertext_with_phase(context, secret, w_rows, rng, size=3)
        plain, noise = context.decrypt_with_noise(ct, secret)
        assert (plain.coeffs.tolist(), noise) == \
            big_int_decrypt(context.params, w_rows)

    def test_near_half_columns_take_exact_fallback(self, name, t, rng):
        """Phases ``round((2j+1) q / 2t)`` put t*w/q within a hair of a
        half-integer: those columns must take the exact fallback, and
        still round like the big-integer path."""
        context, secret = hps_case(name, t)
        basis, q = context.q_basis, context.params.q
        w_rows = garbage_rows(context, rng)
        forced = {}
        for j in range(min(t, 4)):
            near_half = round_half_away((2 * j + 1) * q, 2 * t)
            forced[3 * j] = near_half
            forced[3 * j + 1] = -near_half
        for col, value in forced.items():
            w_rows[:, col] = basis.residues_of(value)
        m, ambiguous = hps_decrypt_round(basis, t, w_rows)
        assert set(forced) <= set(ambiguous.tolist())
        m_coeffs, noise = big_int_decrypt(context.params, w_rows)
        assert m.tolist() == m_coeffs
        plain, got_noise = context.decrypt_with_noise(
            ciphertext_with_phase(context, secret, w_rows, rng), secret)
        assert plain.coeffs.tolist() == m_coeffs
        assert got_noise == noise


class TestDecryptTransforms:
    """Only the parts multiplied by s are forward-transformed; c0 joins
    on whichever side of the inverse transform it lives."""

    @pytest.mark.parametrize("size", [2, 3])
    def test_coefficient_c0_is_never_transformed(self, size, rng):
        context, secret = hps_case("toy", 65537)
        k = context.params.k_q
        ct = ciphertext_with_phase(context, secret,
                                   garbage_rows(context, rng), rng, size)
        before = transform_counts()
        context.decrypt_with_noise(ct, secret)
        after = transform_counts()
        assert after["forward_rows"] - before["forward_rows"] == \
            (size - 1) * k
        assert after["inverse_rows"] - before["inverse_rows"] == k

    def test_every_domain_mix_decrypts_identically(self, rng):
        context, secret = hps_case("mini", 65537)
        w_rows = garbage_rows(context, rng)
        ct = ciphertext_with_phase(context, secret, w_rows, rng)
        want = big_int_decrypt(context.params, w_rows)
        resident = context.to_ntt_ct(ct)
        for c0, c1 in ((ct.c0, ct.c1), (resident.c0, resident.c1),
                       (resident.c0, ct.c1), (ct.c0, resident.c1)):
            plain, noise = context.decrypt_with_noise(
                Ciphertext((c0, c1), context.params), secret)
            assert (plain.coeffs.tolist(), noise) == want
