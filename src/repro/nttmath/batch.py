"""Batched limb-parallel negacyclic NTT engine.

This is the software analogue of the paper's headline parallelism: all
``k`` RPAUs transform their residue channels *simultaneously*. A
:class:`BasisTransformer` transforms the whole ``(k, n)`` residue
matrix of an RNS polynomial in one call, a cache-sized block of
channels per pass, instead of looping over limbs one at a time in
Python the way the per-row
:class:`~repro.nttmath.ntt.NegacyclicTransformer` path does.

The engine uses the four-step decomposition ``n = n1 * n2`` (the same
factorisation the paper's pipelined NTT unit streams through its
butterfly array): a size-n1 sub-NTT, an element-wise twiddle
correction, a transpose, and a size-n2 sub-NTT. Because the
sub-transforms are short, each one is evaluated as a *dense matrix
product* in float64 — operands split into narrow limbs so every BLAS
partial sum stays below 2^53 and is therefore exact — which turns the
NTT's many memory-bound element-wise passes into a handful of
compute-dense dgemm calls. The remaining element-wise work per
transform is the division-free reductions and Shoup twiddle
multiplies between stages. See :class:`BasisTransformer` for the
detailed numerics.

Large rings generalise the recipe recursively: above n = 16384 — where
a two-stage split would need a sub-DFT beyond 128 points and therefore
a wider, costlier limb split — the planner factors ``n`` into *three*
sub-DFTs of at most 128 points each (n = 32768 runs 32 x 32 x 32: 192
gemm flops per element instead of the wide-limb four-step's 1024).
Limb widths are still chosen per stage from a proved exactness bound
(:func:`_limb_plan`), with three-limb splits kept as the escape hatch
for bases the stage search cannot reshape.
:func:`engine_unsupported_reason` is the single support predicate;
every dispatcher that has to fall back to the per-row path records a
structured :class:`EngineFallback` diagnostic and logs a warning
instead of degrading silently.

All transforms are bit-exact against :func:`~repro.nttmath.ntt.ntt_iterative`
and the per-row ``NegacyclicTransformer`` — the property tests enforce
this across ring sizes (up to n = 32768) and basis shapes.

Transform accounting reports through :mod:`repro.obs`: the row/call
counters are registered instruments on the scoped metrics registry
(see :data:`TRANSFORM_COUNTER`), and when a tracer is active each
batched invocation also emits a nested "transform" span via
:func:`repro.obs.maybe_span`, so a :class:`~repro.obs.TraceReport`
can attribute engine time to individual program ops.
"""

from __future__ import annotations

import logging
import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ParameterError
from ..obs import active_tracer
from ..obs import counter as _obs_counter
from ..obs import current_registry, maybe_span
from ..parallel import active_executor, split_range
from ..utils import log2_exact
from .modmath import modinv
from .ntt import _MAX_MODULUS_BITS, power_table
from .primes import root_of_unity

_SHOUP_SHIFT = 32
"""Fixed-point shift of the precomputed Shoup twiddle quotients."""

logger = logging.getLogger(__name__)

MAX_ENGINE_N = 1 << 15
"""Largest ring degree the gemm engine serves (the property-tested
envelope; the limb-split machinery itself is exact well beyond it)."""

#: Maximum value the engine accepts as a sub-transform input: canonical
#: residues and raw 30-bit digits both satisfy it.
_MAX_INPUT = (1 << 30) - 1

PARALLEL_MIN_WORK = int(os.environ.get("REPRO_PARALLEL_MIN_WORK",
                                       1 << 14))
"""Smallest batched-transform size (total rows x n) worth tiling over
the active executor. Below it thread dispatch overhead beats the gemm
time; the parallel CI leg sets ``REPRO_PARALLEL_MIN_WORK=1`` to force
every transform in the suite through the tiled path."""

_BLOCK_ELEMS = 24576
"""Residues per channel block of the stage loop (192 KiB per int64
plane): the handful of scratch planes one block touches stay in a
2 MiB L2, the software twin of one RPAU streaming its channel through
its own BRAM. n = 8192 runs 3 channels per block, n >= 16384 one."""


# -- transform accounting ------------------------------------------------------


TRANSFORM_COUNTER = _obs_counter(
    "repro_ntt_transforms_total",
    "NTT engine transform work: rows = single-polynomial row "
    "transforms (the unit one RPAU performs), calls = batched engine "
    "invocations, fallback = per-row degradations.",
    labels=("kind",),
)
"""The transform instrument, registered in :mod:`repro.obs`.

Values live in whichever :class:`~repro.obs.MetricsRegistry` is
active — the :func:`~repro.obs.scoped_metrics` context gives each test
or concurrent backend its own counter plane, which is what makes
:func:`reset_transform_counts` safe to call without corrupting a
sibling's telemetry (the pre-registry global counter hazard). The
counters drive :class:`~repro.api.backends.LocalBackend` telemetry,
which is how the tests prove the NTT-resident executor really does
eliminate redundant transforms.
"""

_TRANSFORM_KEYS = ("forward_rows", "inverse_rows", "forward_calls",
                   "inverse_calls", "fallback_calls", "roundtrip_rows",
                   "roundtrip_calls")


def _count_transform(direction: str, rows: int) -> None:
    TRANSFORM_COUNTER.inc(rows, kind=f"{direction}_rows")
    TRANSFORM_COUNTER.inc(1, kind=f"{direction}_calls")


def count_roundtrip(rows: int) -> None:
    """Record a resident -> coefficient round trip (``rows`` rows).

    A *round trip* is the specific waste the resident executor exists
    to eliminate: an NTT-resident operand forced back to coefficient
    representation (whose coefficients will then have to be transformed
    forward again by any evaluation-domain consumer). The evaluator's
    *internal* inverse transforms — the stacked INTT folded into the
    lift, the keyswitch accumulator INTT on a coefficient-domain
    output — are part of the algorithms themselves and are **not**
    round trips. :meth:`FvContext.to_coeff_ct` reports here, so a
    zero ``roundtrip_calls`` reading across a program run is the
    telemetry proof that no resident operand ever left the evaluation
    domain.
    """
    TRANSFORM_COUNTER.inc(rows, kind="roundtrip_rows")
    TRANSFORM_COUNTER.inc(1, kind="roundtrip_calls")


def transform_counts() -> dict[str, int]:
    """Current transform counters (of the active registry) as a dict."""
    return {key: int(TRANSFORM_COUNTER.value(kind=key))
            for key in _TRANSFORM_KEYS}


def reset_transform_counts() -> None:
    """Zero the transform counters *in the active registry only*."""
    current_registry().reset_instrument(TRANSFORM_COUNTER.spec.name)


# -- fallback diagnostics ------------------------------------------------------

_FALLBACK_LIMIT = 64


@dataclass(frozen=True)
class EngineFallback:
    """One recorded per-row degradation of a batched dispatch.

    Emitted whenever a dispatcher had to route a basis the gemm engine
    cannot serve (see :func:`engine_unsupported_reason`) to the per-row
    path. The structured record (plus a rate-limited ``logging``
    warning) makes the degradation observable: benchmarks that think
    they measure the gemm engine, and servers that silently lost their
    5x, have something to assert on.
    """

    n: int
    k: int
    max_prime_bits: int
    reason: str


_FALLBACK_EVENTS: list[EngineFallback] = []
_FALLBACK_LOGGED: set[tuple[int, int, int]] = set()


def engine_fallbacks() -> tuple[EngineFallback, ...]:
    """Structured per-row fallback diagnostics recorded so far."""
    return tuple(_FALLBACK_EVENTS)


def reset_engine_fallbacks() -> None:
    _FALLBACK_EVENTS.clear()
    _FALLBACK_LOGGED.clear()


def _note_fallback(primes: tuple[int, ...], n: int, reason: str) -> None:
    TRANSFORM_COUNTER.inc(1, kind="fallback_calls")
    event = EngineFallback(n=n, k=len(primes),
                           max_prime_bits=max(primes).bit_length(),
                           reason=reason)
    if len(_FALLBACK_EVENTS) < _FALLBACK_LIMIT:
        _FALLBACK_EVENTS.append(event)
    key = (event.n, event.k, event.max_prime_bits)
    if key not in _FALLBACK_LOGGED:
        _FALLBACK_LOGGED.add(key)
        logger.warning(
            "batched NTT engine cannot serve basis (k=%d, n=%d, "
            "max prime %d bits): %s; degrading to the exact per-row "
            "path", event.k, n, event.max_prime_bits, reason,
        )


@dataclass(frozen=True)
class _LimbSplit:
    """One sub-transform's limb configuration (``count`` limbs of
    ``bits`` bits each, most-significant block first)."""

    bits: int
    count: int


#: Candidate splits, cheapest first. Two 15-bit limbs carry 30-bit
#: values through sub-DFTs up to 128 points — the widest sub-DFT the
#: stage planner emits; three 11-bit limbs would reach 256-point
#: sub-DFTs and four 8-bit limbs far beyond, kept as the proved
#: escape hatch for shapes the stage search cannot serve.
_SPLIT_CANDIDATES = (_LimbSplit(15, 2), _LimbSplit(11, 3), _LimbSplit(8, 4))


def _limb_plan(length: int, max_value: int,
               max_prime: int) -> _LimbSplit | None:
    """Smallest limb split keeping a length-``length`` sub-DFT exact.

    A gemm dot product sums ``count * length`` terms: for each limb
    block, ``length`` products of a table entry (< max_prime) with a
    limb of the input. Exactness requires every partial sum — and the
    quotient-times-modulus product of the float reduction that follows,
    which can overshoot by up to one modulus — to stay at or below
    2^53, where float64 integer arithmetic is exact.
    """
    for split in _SPLIT_CANDIDATES:
        # The top limb block is shift-only (no mask), so any value is
        # carried — a wide top limb just tightens the sum bound below.
        top_max = max_value >> (split.bits * (split.count - 1))
        rest_max = (1 << split.bits) - 1
        bound = length * (max_prime - 1) * (
            top_max + (split.count - 1) * rest_max
        )
        if bound + max_prime <= 1 << 53:
            return split
    return None


@dataclass(frozen=True)
class _Stage:
    """One sub-DFT stage of the decomposition.

    ``canonical_in`` marks stages whose lazy [0, 2q) inputs must be
    canonicalised by a conditional subtract before the limb split —
    worth it exactly when the lazy bound would force a wider (more
    expensive) split than the canonical bound.
    """

    length: int
    split: _LimbSplit
    canonical_in: bool


@dataclass(frozen=True)
class _Geometry:
    """A feasible multi-stage factorisation ``n = prod(factors)``."""

    factors: tuple[int, ...]
    stages: tuple[_Stage, ...]


#: Above this ring degree the planner considers three-stage splits: a
#: two-stage split of n > 16384 needs a sub-DFT above 128 points and
#: therefore a three-limb gemm, at which point a third 128-point-or-
#: less stage is strictly fewer flops (n = 32768: 192 vs 1024 per
#: element). At or below it the measured-good two-stage plans are kept.
_MAX_TWO_STAGE_N = 1 << 14


def _stage_for(length: int, max_prime: int,
               first: bool) -> _Stage | None:
    """The cheapest exact stage config for one sub-DFT length.

    The first stage sees canonical residues / raw 30-bit digits; later
    stages see lazy [0, 2q) values from the preceding twiddle multiply
    and canonicalise them first only when that buys a narrower split.
    """
    canonical = _limb_plan(length, _MAX_INPUT, max_prime)
    if canonical is None:
        return None
    if first:
        return _Stage(length, canonical, False)
    lazy = _limb_plan(length, 2 * max_prime - 1, max_prime)
    if lazy is not None and lazy.count <= canonical.count:
        return _Stage(length, lazy, False)
    return _Stage(length, canonical, True)


@lru_cache(maxsize=None)
def _plan_geometry(n: int, max_prime: int) -> _Geometry | None:
    """Cheapest exact factorisation of the gemm decomposition.

    Scans every power-of-two split of ``n`` into two factors — and,
    above ``_MAX_TWO_STAGE_N``, three factors (the recursive
    generalisation of the four-step: sub-DFT, twiddle, sub-DFT,
    twiddle, sub-DFT) — prices each stage by its gemm width
    (``limb count x sub-transform length``, the flop count per output
    element), and keeps the cheapest feasible plan (ties resolved
    toward larger leading factors, matching the pre-generalisation
    layout at n <= 16384).
    """
    stages_log = log2_exact(n)

    def plan(exponents: tuple[int, ...]) -> tuple | None:
        stages = []
        for index, a in enumerate(exponents):
            stage = _stage_for(1 << a, max_prime, first=index == 0)
            if stage is None:
                return None
            stages.append(stage)
        cost = sum(s.split.count * s.length for s in stages)
        factors = tuple(1 << a for a in exponents)
        key = (cost,) + tuple(-f for f in factors)
        return key, _Geometry(factors, tuple(stages))

    candidates = [
        (a, stages_log - a) for a in range(stages_log + 1)
    ]
    if n > _MAX_TWO_STAGE_N:
        candidates += [
            (a, b, stages_log - a - b)
            for a in range(1, stages_log - 1)
            for b in range(1, stages_log - a)
        ]
    best: tuple | None = None
    for exponents in candidates:
        candidate = plan(exponents)
        if candidate is not None and (best is None
                                      or candidate[0] < best[0]):
            best = candidate
    return best[1] if best else None


def engine_unsupported_reason(primes: tuple[int, ...],
                              n: int) -> str | None:
    """Why the gemm engine cannot serve this basis (None = it can).

    The single support predicate every dispatcher consults. The
    support matrix it encodes: primes below 31 bits (the lazy-reduction
    datapath needs 4q < 2^32) and ring degrees up to
    ``MAX_ENGINE_N`` = 32768 (the property-tested envelope of the
    per-step limb-split search). Ineligible bases take the (slower,
    still exact) per-row path, with a structured
    :class:`EngineFallback` diagnostic recorded.
    """
    if not primes:
        return "empty RNS basis"
    if max(primes).bit_length() >= _MAX_MODULUS_BITS:
        return (
            f"max prime has {max(primes).bit_length()} bits; the "
            "lazy-reduction datapath needs 4q < 2^32 (primes below "
            f"{_MAX_MODULUS_BITS} bits)"
        )
    if n > MAX_ENGINE_N:
        return (
            f"ring degree {n} exceeds the engine's tested envelope "
            f"(n <= {MAX_ENGINE_N})"
        )
    if _plan_geometry(n, max(primes)) is None:  # pragma: no cover
        return f"no exact limb split exists for degree {n}"
    return None


def batched_engine_ok(primes: tuple[int, ...], n: int) -> bool:
    """Can the gemm engine run this basis?"""
    return engine_unsupported_reason(tuple(primes), n) is None


def _use_per_row(primes: tuple[int, ...], n: int) -> bool:
    """Dispatch decision shared by every entry point, with diagnostics.

    A fallback is a degradation and is recorded as an
    :class:`EngineFallback` plus a rate-limited log warning.
    """
    reason = engine_unsupported_reason(tuple(primes), n)
    if reason is None:
        return False
    _note_fallback(tuple(primes), n, reason)
    return True


def _shoup_table(table: np.ndarray, primes_col: np.ndarray) -> np.ndarray:
    """Scaled quotients ``floor(w * 2^32 / q)`` for a stacked table.

    Entries are < 2^30, so the shifted product stays below 2^62 and the
    division is exact in int64 — no object-dtype arithmetic needed.
    """
    return (table << _SHOUP_SHIFT) // primes_col


class BasisTransformer:
    """Vectorised negacyclic NTT over a whole RNS basis at once.

    The transform uses the four-step decomposition ``n = n1 * n2`` the
    paper's pipelined NTT unit is built around — a size-n1 NTT down the
    columns of the (n1, n2) coefficient matrix, an element-wise twiddle
    correction, a transpose, and a size-n2 NTT over the transposed
    matrix — generalised recursively to *three* stages above n = 16384
    (sub-DFT, twiddle, sub-DFT, twiddle, sub-DFT, every factor at most
    128 points) — with every short sub-NTT computed as a *dense matrix
    product* evaluated by BLAS in float64:

    * each operand is split into narrow limbs (two 15-bit limbs for
      every sub-DFT the stage planner actually emits; wider splits
      remain as the proved escape hatch) and the sub-DFT matrix is
      stored as the (L, c*L) block ``[W * 2^(b*(c-1)) mod q | ... |
      W]``, so one dgemm per stage computes the exact sub-transform
      (every partial sum stays at or below 2^53, where float64
      arithmetic on integers is exact — :func:`_limb_plan` proves the
      bound per stage);
    * the negacyclic psi^i pre-twist is folded into the stage-1 matrix
      and the twiddle tables, and the inverse transform's
      ``psi^-j / n`` post-scale is folded into its twiddles and final
      stage matrix, so neither costs a separate pass;
    * the post-gemm reductions run in float64 too (quotients are below
      2^23, so ``g - rint(g/q) * q`` is exact), leaving the Shoup
      twiddle multiply as the only integer element-wise stage;
    * each polynomial is walked in channel blocks of at most
      :attr:`block` residue rows (``_BLOCK_ELEMS // n``, at least one):
      a block runs every stage before the next block starts, so the
      ~20 element-wise passes of a transform stream cache-resident
      planes instead of the whole ``(k, n)`` matrix. Channels are
      independent and every block uses the same geometry and limb
      plans, so the partition never changes a bit of the output;
    * a relinearisation digit stack shares one tall stage-0 dgemm per
      channel block (:meth:`_GemmPlan.apply_broadcast_many`).

    This is what "as fast as numpy allows" looks like for an exact NTT:
    the butterflies' many memory-bound element passes become a handful
    of compute-dense BLAS calls. Results are bit-identical to the
    per-row :class:`~repro.nttmath.ntt.NegacyclicTransformer` and to
    the paper-literal :func:`~repro.nttmath.ntt.ntt_iterative`.
    Instances are cached per ``(primes, n)`` via
    :func:`basis_transformer`.
    """

    def __init__(self, primes: tuple[int, ...], n: int) -> None:
        self.primes = tuple(int(p) for p in primes)
        self.n = n
        self.stages = log2_exact(n)
        for p in self.primes:
            if p.bit_length() > _MAX_MODULUS_BITS - 1:
                raise ParameterError(
                    f"modulus {p} exceeds {_MAX_MODULUS_BITS - 1} bits; the "
                    "lazy-reduction datapath needs 4q < 2^32"
                )
            if (p - 1) % (2 * n) != 0:
                raise ParameterError(
                    f"modulus {p} is not NTT-friendly for degree {n}"
                )
        geometry = _plan_geometry(n, max(self.primes))
        if geometry is None:
            raise ParameterError(
                f"degree {n} admits no exact limb-split factorisation; "
                "use the per-row path"
            )
        self.geometry = geometry
        self.factors = geometry.factors
        self.k = len(self.primes)
        #: Most channels one block of the stage loop carries.
        self.block = min(self.k, max(1, _BLOCK_ELEMS // n))
        self.primes_col = np.array(self.primes, dtype=np.int64)[:, None]
        # (k, 1) modulus columns (int, float, reciprocal) that every
        # element-wise pass broadcasts along the row.
        p_f = self.primes_col.astype(np.float64)
        self._mod_tables = (self.primes_col, p_f, 1.0 / p_f)
        self._fwd = _GemmPlan(self, inverse=False)
        self._inv = _GemmPlan(self, inverse=True)
        self._scaled_inv: dict[tuple[int, ...], _GemmPlan] = {}
        # Scratch is per thread: tile tasks running on pool workers each
        # get their own buffers, so concurrent tiles never alias.
        self._scratch = threading.local()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BasisTransformer(k={self.k}, n={self.n}, "
                f"factors={self.factors})")

    # -- internals ---------------------------------------------------------------

    def _buffers(self) -> tuple[list, list, tuple[np.ndarray, ...]]:
        """Preallocated scratch, shared by both transform directions.

        Sized for one channel block (first dimension :attr:`block`),
        not the whole basis: the stage loop walks each polynomial block
        by block, so these planes stay L2-resident across a block's
        passes, and forward and inverse share one set so the hot loop
        keeps touching the same buffers. Per stage: a float64 limb
        stack and a float64 gemm output; shared: two int64 ping-pong
        state planes and one float64 temporary. The set is
        thread-local, so tile tasks executing on pool worker threads
        never share mutable state.
        """
        bufs = getattr(self._scratch, "bufs", None)
        if bufs is None:
            k, n = self.block, self.n
            limbs = []
            gemm_out = []
            for stage in self.geometry.stages:
                length = stage.length
                rest = n // length
                limbs.append(np.empty(
                    (k, stage.split.count * length, rest),
                    dtype=np.float64,
                ))
                gemm_out.append(np.empty((k, length, rest),
                                         dtype=np.float64))
            bufs = self._scratch.bufs = (
                limbs,
                gemm_out,
                (
                    np.empty((k, n), dtype=np.int64),    # state A
                    np.empty((k, n), dtype=np.int64),    # state B
                    np.empty((k, n), dtype=np.float64),  # float tmp
                ),
            )
        return bufs

    def _check(self, matrix: np.ndarray) -> tuple[np.ndarray, bool]:
        arr = np.asarray(matrix, dtype=np.int64)
        if arr.ndim == 2:
            stacked = False
            arr = arr[None, :, :]
        elif arr.ndim == 3:
            stacked = True
        else:
            raise ParameterError(
                f"expected a (k, n) matrix or (j, k, n) stack, got shape "
                f"{np.asarray(matrix).shape}"
            )
        if arr.shape[1] != self.k or arr.shape[2] != self.n:
            raise ParameterError(
                f"residue stack shape {arr.shape[1:]} does not match the "
                f"({self.k} x {self.n}) basis layout"
            )
        return arr, stacked

    # -- channel blocks and tiled dispatch ------------------------------------------

    def _blocks(self, c0: int, c1: int) -> list[tuple[int, int]]:
        """Even channel blocks of ``[c0, c1)``, each at most
        :attr:`block` channels wide."""
        width = c1 - c0
        return [(c0 + lo, c0 + hi)
                for lo, hi in split_range(width, -(-width // self.block))]

    def scaled_plan(self, constants: tuple[int, ...]) -> _GemmPlan:
        """The cached scaled-inverse plan for one constants tuple."""
        plan = self._scaled_inv.get(constants)
        if plan is None:
            plan = _GemmPlan(self, inverse=True, channel_scale=constants)
            self._scaled_inv[constants] = plan
        return plan

    def _tile_plan(self, j: int, target: int) -> list[tuple[int, int, int]]:
        """Deterministic (poly, c0, c1) tiles, about ``target`` of them.

        Polynomials split first, then channels, evenly per polynomial
        (a channel tile runs the same plan on its channel range, just
        like a block of the serial loop) — the limb x channel
        decomposition the paper's residue-parallel datapath is built
        around.
        """
        chunks = split_range(self.k, max(1, -(-target // j)))
        return [(jdx, c0, c1) for jdx in range(j)
                for c0, c1 in chunks]

    def _dispatch(self, op: str, plan: _GemmPlan, arr: np.ndarray,
                  out: np.ndarray, lazy: bool = False,
                  constants: tuple[int, ...] | None = None) -> None:
        """Run one batched transform serially or tiled over the executor.

        The tiled path is taken only when the active executor has
        real workers and the batch clears :data:`PARALLEL_MIN_WORK`;
        it produces bit-identical output (disjoint tiles of the same
        plan), so the choice is invisible to every caller — and to
        the transform counters, which count at this dispatcher level
        either way.
        """
        j = arr.shape[0]
        executor = active_executor()
        tiles: list[tuple[int, int, int]] = []
        if (executor.workers > 1
                and j * self.k * self.n >= PARALLEL_MIN_WORK):
            tiles = self._tile_plan(j, 2 * executor.workers)
        if len(tiles) < 2:
            if op == "forward_broadcast":
                if j > 1:
                    # Digit stacks share one tall stage-0 dgemm (the
                    # broadcast fast path across relinearisation
                    # digits); a single row keeps the per-digit entry.
                    plan.apply_broadcast_many(self, arr, out, lazy=lazy)
                else:
                    plan.apply_broadcast(self, arr[0], out[0],
                                         lazy=lazy)
            else:
                for idx in range(j):
                    plan.apply(self, arr[idx], out[idx], lazy=lazy)
            return
        # Worker threads would otherwise race to build the Shoup
        # twiddle tables lazily; process workers rebuild them in their
        # own interpreters, so only address-space-sharing executors
        # need the warm-up.
        if executor.shares_address_space:
            plan.tables()
        common = (op, self.primes, self.n, bool(lazy), constants)
        timings = executor.map_array_tiles("ntt_tile", arr, out, tiles,
                                           common)
        tracer = active_tracer()
        if tracer is not None:
            # Real (possibly overlapping) per-tile intervals; the
            # timeline exporter spreads them over per-worker lanes.
            for timing in timings:
                jdx, c0, c1 = timing.tile
                tracer.add(f"{op}.tile", "tile", timing.start,
                           timing.end, clock="wall", worker=timing.worker,
                           poly=jdx, channels=[c0, c1])

    # -- public API ----------------------------------------------------------------

    def forward(self, matrix: np.ndarray,
                lazy: bool = False) -> np.ndarray:
        """Negacyclic forward NTT of every residue row, batched.

        ``matrix`` is a ``(k, n)`` residue matrix with entries in
        ``[0, q_i)`` or a ``(j, k, n)`` stack; the result has the same
        shape with canonical NTT-domain entries, bit-identical to the
        per-row reference transforms. With ``lazy=True`` the final
        conditional subtract is skipped and entries land in [0, 2q) —
        for consumers whose own reduction absorbs the slack (the tensor
        step's point-wise products).
        """
        arr, stacked = self._check(matrix)
        out = np.empty_like(arr)
        with maybe_span("ntt.forward", rows=arr.shape[0] * self.k,
                        n=self.n):
            self._dispatch("forward", self._fwd, arr, out, lazy=lazy)
        _count_transform("forward", arr.shape[0] * self.k)
        return out if stacked else out[0]

    def inverse(self, matrix: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT of every residue row, batched."""
        arr, stacked = self._check(matrix)
        out = np.empty_like(arr)
        with maybe_span("ntt.inverse", rows=arr.shape[0] * self.k,
                        n=self.n):
            self._dispatch("inverse", self._inv, arr, out)
        _count_transform("inverse", arr.shape[0] * self.k)
        return out if stacked else out[0]

    def inverse_scaled(self, matrix: np.ndarray,
                       constants: tuple[int, ...]) -> np.ndarray:
        """Inverse NTT with a per-channel constant multiply folded in.

        Channel ``c`` of the result equals
        ``(INTT_c(matrix[c]) * constants[c]) mod q_c`` — the constant
        rides along in the (linear) transform's twiddle table for free.
        This is how the evaluator fuses Scale's Block-1 ``Q~_k``
        multiplies into the tensor step's inverse transforms. Scaled
        plans are cached per constants tuple.
        """
        if len(constants) != self.k:
            raise ParameterError(
                f"need {self.k} channel constants, got {len(constants)}"
            )
        constants = tuple(int(c) for c in constants)
        plan = self.scaled_plan(constants)
        arr, stacked = self._check(matrix)
        out = np.empty_like(arr)
        with maybe_span("ntt.inverse_scaled", rows=arr.shape[0] * self.k,
                        n=self.n):
            self._dispatch("inverse_scaled", plan, arr, out,
                           constants=constants)
        _count_transform("inverse", arr.shape[0] * self.k)
        return out if stacked else out[0]

    def forward_broadcast(self, rows: np.ndarray,
                          lazy: bool = False) -> np.ndarray:
        """Forward NTT of each raw digit row under every basis prime.

        ``rows`` is a ``(j, n)`` matrix of non-negative values below
        2^30 (unreduced raw-residue digits); the result is ``(j, k, n)``
        with channel ``c`` of output ``i`` equal to the NTT of
        ``rows[i] mod primes[c]`` — bit-identical to broadcasting,
        reducing, and transforming per channel, at a fraction of the
        cost (see :meth:`_GemmPlan.apply_broadcast`).
        """
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ParameterError(
                f"expected (j, {self.n}) digit rows, got {arr.shape}"
            )
        j = arr.shape[0]
        out = np.empty((j, self.k, self.n), dtype=np.int64)
        with maybe_span("ntt.forward_broadcast", rows=j * self.k,
                        n=self.n):
            self._dispatch("forward_broadcast", self._fwd, arr, out,
                           lazy=lazy)
        _count_transform("forward", j * self.k)
        return out

    def pointwise(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Element-wise modular product of NTT-domain matrices."""
        return (np.asarray(left, dtype=np.int64)
                * np.asarray(right, dtype=np.int64)) % self.primes_col

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product of two residue matrices, batched."""
        stack = np.stack([np.asarray(a, dtype=np.int64),
                          np.asarray(b, dtype=np.int64)])
        fa, fb = self.forward(stack)
        return self.inverse(self.pointwise(fa, fb))


class _GemmPlan:
    """Precomputed tables for one transform direction of a basis.

    The decomposition runs ``S`` sub-DFT stages (two for n <= 16384,
    three beyond — the recursive generalisation of the four-step) with
    a twiddle correction between consecutive stages. Per stage ``t``
    the float64 ``(k, L, c*L)`` limb-split sub-DFT matrix
    ``[W * 2^(b*(c-1)) mod q | ... | W * 2^b mod q | W]`` carries the
    stage's ``c`` limbs of ``b`` bits; the twiddle tables are flat
    int64 ``(k, n)`` planes (in the exact memory layout they are
    applied in) with lazily-built Shoup quotients. The psi pre-twist
    (forward) and the ``psi^-j / n`` post-scale (inverse) are folded
    into these tables, so :meth:`apply` runs no standalone scaling
    passes. The tables are built once for the whole basis; a channel
    block or tile of the stage loop reads row views of them.

    Index algebra (the generalisation the tables implement): with
    ``n = f_0 * ... * f_{S-1}``, input index
    ``i = sum_t i_t * (n / P_t)`` and output index
    ``j = sum_t j_t * P_{t-1}`` (``P_t`` the prefix products),

    * stage ``t`` applies ``w_{f_t}^{i_t j_t}`` — the gemm matrix;
    * twiddle ``u`` (after stage ``u``) applies
      ``w_{P_{u+1}}^{i_{u+1} * (j mod P_u)}`` — everything that couples
      the next input axis to the outputs produced so far;
    * between stages the produced axis rotates behind the remaining
      input axes, so stage ``S-1``'s gemm emits the flat natural-order
      result with no final permutation.

    Setting ``S = 2`` reproduces the original four-step tables
    bit for bit.
    """

    def __init__(self, bt: BasisTransformer, inverse: bool,
                 channel_scale: tuple[int, ...] | None = None) -> None:
        k, n = bt.k, bt.n
        factors = bt.geometry.factors
        num = len(factors)
        prefix = []
        acc = 1
        for f in factors:
            acc *= f
            prefix.append(acc)   # P_t = f_0 * ... * f_t
        steps = [
            np.empty((k, stage.length,
                      stage.split.count * stage.length),
                     dtype=np.float64)
            for stage in bt.geometry.stages
        ]
        twiddles = [
            np.empty((k, n), dtype=np.int64) for _ in range(num - 1)
        ]
        order = 2 * n
        for ki, p in enumerate(bt.primes):
            psi = root_of_unity(order, p)
            if inverse:
                psi = modinv(psi, p)
            psi_pow = power_table(psi, order, p)
            inv_n = modinv(n, p) if inverse else 1
            for t, stage in enumerate(bt.geometry.stages):
                f = stage.length
                j = np.arange(f, dtype=np.int64)[:, None]
                i = np.arange(f, dtype=np.int64)[None, :]
                exp = 2 * (n // f) * j * i
                if not inverse and t == 0:
                    # psi^i pre-twist, i_0 part.
                    exp = exp + (n // factors[0]) * i
                if inverse and t == num - 1:
                    # psi^-j post-scale, j_{S-1} part.
                    exp = exp + (prefix[-2] if num > 1 else 1) * j
                w = psi_pow[exp % order]
                split = stage.split
                for block in range(split.count):
                    shift = split.bits * (split.count - 1 - block)
                    steps[t][ki, :, block * f: (block + 1) * f] = \
                        (w << shift) % p
            for u in range(num - 1):
                twiddles[u][ki] = self._twiddle_plane(
                    factors, prefix, u, psi_pow, order, p,
                    inverse=inverse,
                    inv_n=inv_n if u == 0 else 1,
                    channel_scale=(channel_scale[ki]
                                   if channel_scale is not None
                                   and u == 0 else 1),
                )
        self.steps = steps
        self._twiddles = twiddles
        self._primes_col = bt.primes_col
        self._flat: list[tuple[np.ndarray, np.ndarray]] | None = None

    @staticmethod
    def _twiddle_plane(factors, prefix, u, psi_pow, order, p, *,
                       inverse, inv_n, channel_scale) -> np.ndarray:
        """One channel's flat twiddle table after stage ``u``.

        Built directly in the application layout
        ``(j_u, i_{u+1}, ..., i_{S-1}, j_{u-1}, ..., j_0)``:
        ``w_{P_{u+1}}^{i_{u+1} * Jsum}`` with
        ``Jsum = sum_{w<=u} j_w P_{w-1}``, plus the folded-in psi
        twist (forward: ``psi^{i_{u+1} * n/P_{u+1}}``) or post-scale
        (inverse: ``psi^{-j_u P_{u-1}}`` and ``1/n`` on the first
        twiddle), and the per-channel constant of scaled inverses.
        """
        num = len(factors)
        n = prefix[-1]
        shape = ([factors[u]] + list(factors[u + 1:])
                 + list(reversed(factors[:u])))
        axes = len(shape)

        def along(values: np.ndarray, axis: int) -> np.ndarray:
            view = [1] * axes
            view[axis] = len(values)
            return values.reshape(view)

        j_u = np.arange(factors[u], dtype=np.int64)
        i_next = np.arange(factors[u + 1], dtype=np.int64)
        weight_u = prefix[u - 1] if u > 0 else 1
        jsum = along(j_u * weight_u, 0)
        for w in range(u):
            # Axis of j_w in the layout: after the remaining inputs,
            # reversed (j_{u-1} first).
            axis = 1 + (num - 1 - u) + (u - 1 - w)
            weight = prefix[w - 1] if w > 0 else 1
            jsum = jsum + along(
                np.arange(factors[w], dtype=np.int64) * weight, axis
            )
        stride = 2 * (n // prefix[u + 1])
        exp = along(i_next, 1) * (stride * jsum)
        exp = exp + (along(j_u * weight_u, 0) if inverse
                     else along((n // prefix[u + 1]) * i_next, 1))
        plane = psi_pow[np.broadcast_to(exp % order, shape)]
        scale = (inv_n * (channel_scale % p)) % p
        if scale != 1:
            plane = (plane * scale) % p
        return plane.reshape(-1)

    def tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-twiddle (table, Shoup quotients), lazily materialised."""
        if self._flat is None:
            self._flat = [
                (tw, _shoup_table(tw, self._primes_col))
                for tw in self._twiddles
            ]
        return self._flat

    @staticmethod
    def _reduce_lazy(g: np.ndarray, p_f: np.ndarray, inv_p: np.ndarray,
                     q_f: np.ndarray, out: np.ndarray) -> None:
        """Cast the exact float64 gemm output into lazy int64 [0, 2q).

        ``g`` holds exact integers at or below 2^53, so the float
        quotient ``rint(g / q)`` is off by at most one and
        ``g - rint(g/q) * q`` lands in (-q, q) — still exact, because
        every intermediate is an integer of magnitude at most 2^53
        (the limb plans reserve one modulus of overshoot headroom).
        Adding q gives the lazy representative with no integer
        division anywhere.
        """
        np.multiply(g, inv_p, out=q_f)
        np.rint(q_f, out=q_f)
        np.multiply(q_f, p_f, out=q_f)
        np.subtract(g, q_f, out=g)
        np.add(g, p_f, out=out, casting="unsafe")

    @staticmethod
    def _split_into(values: np.ndarray, limbs: np.ndarray,
                    split: _LimbSplit, scratch: np.ndarray) -> None:
        """Write the limb stack of one (B, L, C) block, top limb first.

        The ufuncs cast straight into the float64 limb buffer (exact:
        every limb is far below 2^53); middle limbs need a shift *and*
        a mask, staged through the int64 ``scratch`` (same shape as
        ``values``). For the classic two-limb split this is exactly the
        old shift + mask pair.
        """
        rows = values.shape[1]
        np.right_shift(values, split.bits * (split.count - 1),
                       out=limbs[:, :rows, :], casting="unsafe")
        mask = (1 << split.bits) - 1
        for block in range(1, split.count):
            dest = limbs[:, block * rows: (block + 1) * rows, :]
            shift = split.bits * (split.count - 1 - block)
            if shift:
                np.right_shift(values, shift, out=scratch)
                np.bitwise_and(scratch, mask, out=dest,
                               casting="unsafe")
            else:
                np.bitwise_and(values, mask, out=dest, casting="unsafe")

    def _transpose_axes(self, num: int, t: int) -> tuple[int, ...]:
        """Axis permutation moving stage ``t``'s output axis behind the
        remaining input axes (layout invariant of the stage loop)."""
        remaining = num - 1 - t
        return ((0,) + tuple(range(2, 2 + remaining)) + (1,)
                + tuple(range(2 + remaining, num + 1)))

    @staticmethod
    def _stage_shape(factors: tuple[int, ...], rows: int, t: int) -> tuple:
        """(rows, j_t, i_{t+1}, ..., i_{S-1}, j_{t-1}, ..., j_0)."""
        return ((rows, factors[t]) + tuple(factors[t + 1:])
                + tuple(reversed(factors[:t])))

    def apply(self, bt: BasisTransformer, x: np.ndarray,
              out: np.ndarray, lazy: bool = False,
              channels: tuple[int, int] | None = None) -> None:
        """Transform the rows of ``x`` into ``out`` (natural order).

        ``x`` and ``out`` hold channels ``[c0, c1)`` of the basis
        (``channels``; all ``k`` by default), walked in channel blocks.
        Entries of ``x`` must be non-negative and below 2^30 (canonical
        residues and raw 30-bit digits always are — the bound the limb
        plans are proved exact against); ``out`` receives canonical
        [0, q) values (or lazy [0, 2q) ones when ``lazy`` is set).
        """
        c0, c1 = channels or (0, bt.k)
        with _row_buffers(bt.n):
            for b0, b1 in bt._blocks(c0, c1):
                self._run(bt, b0, b1, x[b0 - c0:b1 - c0],
                          out[b0 - c0:b1 - c0], lazy)

    def apply_broadcast(self, bt: BasisTransformer, row: np.ndarray,
                        out: np.ndarray, lazy: bool = False,
                        channels: tuple[int, int] | None = None) -> None:
        """Transform one raw digit row under *every* basis prime.

        ``row`` is a length-n vector of non-negative values below 2^30
        — typically an unreduced raw-residue digit. Because
        ``NTT_k(v) ≡ NTT_k(v mod q_k)`` and the engine's reductions are
        exact, ``out`` (channels ``[c0, c1)``, all ``k`` by default) is
        bit-identical to broadcasting the row across the basis,
        reducing per channel, and transforming each channel — but the
        shared source means one limb split covers stage 1 of every
        channel block, each a single tall dgemm (the paper's fused
        WordDecomp + NTT digit pipeline).
        """
        c0, c1 = channels or (0, bt.k)
        stage = bt.geometry.stages[0]
        f0 = stage.length
        limbs, _, (_, alt, _) = bt._buffers()
        # The shared split lives in block row 0 of the stage-0 limb
        # buffer, which the broadcast stage loop never writes.
        shared = limbs[0][:1]
        self._split_into(row.reshape(1, f0, bt.n // f0), shared,
                         stage.split, alt[:1].reshape(1, f0, -1))
        with _row_buffers(bt.n):
            for b0, b1 in bt._blocks(c0, c1):
                self._run(bt, b0, b1, None, out[b0 - c0:b1 - c0], lazy,
                          shared=shared[0])

    def apply_broadcast_many(self, bt: BasisTransformer,
                             rows: np.ndarray, out: np.ndarray,
                             lazy: bool = False) -> None:
        """Broadcast-transform a whole digit stack with one shared
        stage-0 dgemm per channel block.

        ``rows`` is a ``(j, n)`` stack of raw digit rows, ``out`` the
        ``(j, k, n)`` result. Where :meth:`apply_broadcast` shares one
        limb split across the channels of a *single* digit, this fast
        path additionally batches stage 0 across all ``j`` digits:
        digit ``idx`` occupies column block ``idx`` of one shared
        ``(c0*f0, j*rest)`` limb matrix, so a single tall dgemm per
        channel block computes the first sub-DFT of every (digit,
        channel) pair. Gemm columns are independent and every partial
        sum is an exact integer at or below 2^53, so the result is
        bit-identical to ``j`` separate :meth:`apply_broadcast` calls;
        the remaining stages re-enter the shared stage loop per digit
        via its ``stage0`` seed. The gemm output and reduction
        temporaries are ``(block*f0, j*rest)``, not ``(k*f0, j*rest)``.
        """
        stage = bt.geometry.stages[0]
        f0 = stage.length
        rest = bt.n // f0
        j = rows.shape[0]
        cols = j * rest
        # Interleave digits along the column axis: column block idx of
        # (f0, j*rest) holds digit idx's (f0, rest) coefficient matrix.
        values = np.ascontiguousarray(
            rows.reshape(j, f0, rest).transpose(1, 0, 2)
        ).reshape(1, f0, cols)
        limbs = np.empty((1, stage.split.count * f0, cols),
                         dtype=np.float64)
        g = np.empty((bt.block, f0, cols), dtype=np.float64)
        q_f = np.empty_like(g)
        state = np.empty(g.shape, dtype=np.int64)
        self._split_into(values, limbs, stage.split, state[:1])
        _, p_f, inv_p = bt._mod_tables
        with _row_buffers(bt.n):
            for b0, b1 in bt._blocks(0, bt.k):
                b = b1 - b0
                np.matmul(self.steps[0][b0:b1].reshape(b * f0, -1),
                          limbs[0], out=g[:b].reshape(b * f0, cols))
                self._reduce_lazy(g[:b], p_f[b0:b1, :, None],
                                  inv_p[b0:b1, :, None], q_f[:b],
                                  state[:b])
                stacked = state[:b].reshape(b, f0, j, rest)
                for idx in range(j):
                    self._run(bt, b0, b1, None, out[idx, b0:b1], lazy,
                              stage0=stacked[:, :, idx, :])

    def _run(self, bt: BasisTransformer, b0: int, b1: int,
             x: np.ndarray | None, out: np.ndarray, lazy: bool,
             shared: np.ndarray | None = None,
             stage0: np.ndarray | None = None) -> None:
        """The stage loop over one channel block ``[b0, b1)``: per
        stage — optional canonicalise, limb split, one dgemm, float
        reduction — with a Shoup twiddle multiply and an axis rotation
        between stages. Stage matrices, twiddle tables and modulus
        columns are row views of this plan's whole-basis tables.
        ``x``/``out`` are the block's ``(b1 - b0, n)`` rows. A
        ``shared`` limb split (one broadcast digit row, see
        :meth:`apply_broadcast`) replaces ``x`` at stage 0; a
        ``stage0`` seed (the lazy ``(b, f0, rest)`` output of a
        stage-0 gemm computed elsewhere, see
        :meth:`apply_broadcast_many`) skips the first gemm and enters
        the loop at its twiddle."""
        rows, n = b1 - b0, bt.n
        factors = bt.geometry.factors
        stages = bt.geometry.stages
        num = len(stages)
        limbs, gemm_out, (cur, alt, f_tmp) = bt._buffers()
        cur, alt, f_tmp = cur[:rows], alt[:rows], f_tmp[:rows]
        p_int = bt._mod_tables[0][b0:b1]
        # (rows, 1, 1): broadcast over the (rows, f, rest) gemm output.
        p_f, inv_p = (col[b0:b1, :, None] for col in bt._mod_tables[1:])
        twiddle_tables = self.tables()
        for t, stage in enumerate(stages):
            f = stage.length
            rest = n // f
            g = gemm_out[t][:rows]
            step = self.steps[t][b0:b1]
            if t == 0 and stage0 is not None:
                np.copyto(cur.reshape(rows, f, rest), stage0)
            else:
                if t == 0 and shared is not None:
                    np.matmul(step.reshape(rows * f, -1), shared,
                              out=g.reshape(rows * f, rest))
                else:
                    if t == 0:
                        source = x.reshape(rows, f, rest)
                    else:
                        source = cur.reshape(rows, f, rest)
                        if stage.canonical_in:
                            # The lazy [0, 2q) bound would force a
                            # wider limb split; one conditional
                            # subtract restores canonical inputs
                            # (unsigned-minimum trick).
                            np.subtract(cur, p_int, out=alt)
                            np.minimum(cur.view(np.uint64),
                                       alt.view(np.uint64),
                                       out=cur.view(np.uint64))
                    self._split_into(source, limbs[t][:rows], stage.split,
                                     alt.reshape(rows, f, rest))
                    np.matmul(step, limbs[t][:rows], out=g)
                self._reduce_lazy(g, p_f, inv_p, f_tmp.reshape(g.shape),
                                  cur.reshape(g.shape))
            if t < num - 1:
                tw, tw_sh = twiddle_tables[t]
                _shoup_mul(cur, tw[b0:b1], tw_sh[b0:b1], p_int, alt)
                # Rotate the produced axis behind the remaining input
                # axes (one strided copy), ping-ponging the state
                # planes.
                shape = self._stage_shape(factors, rows, t)
                axes = self._transpose_axes(num, t)
                np.copyto(
                    alt.reshape(tuple(shape[axis] for axis in axes)),
                    cur.reshape(shape).transpose(axes),
                )
                cur, alt = alt, cur
        # The last stage's gemm emits the natural-order result: final
        # canonical reduction [0, 2q) -> [0, q) straight into the
        # caller's buffer (or the lazy copy).
        if lazy:
            np.copyto(out.reshape(rows, n), cur)
        else:
            np.subtract(cur, p_int, out=alt)
            np.minimum(cur.view(np.uint64), alt.view(np.uint64),
                       out=out.reshape(rows, n).view(np.uint64))


@contextmanager
def _row_buffers(n: int) -> Iterator[None]:
    """Scope numpy's ufunc buffer to one residue row of ``n`` elements.

    The stage loop's modulus columns broadcast along rows. When a row
    is shorter than numpy's ufunc buffer (8192 elements by default),
    the iterator copies the column operand into chunks spanning several
    rows, which made each broadcast pass about 2.5x slower than a full
    ``(k, n)`` plane at n = 4096; a one-row buffer keeps every inner
    loop inside a row. The setting is per thread and restored on exit.
    """
    if n >= np.getbufsize():
        yield
        return
    previous = np.setbufsize(max(n, 16))
    try:
        yield
    finally:
        np.setbufsize(previous)


def _shoup_mul(values: np.ndarray, table: np.ndarray,
               table_shoup: np.ndarray, p_full: np.ndarray,
               q_buf: np.ndarray) -> None:
    """In-place ``values = values * table mod p``, lazily in [0, 2p).

    ``values`` must be < 2^32. The uint64 views keep the 64-bit product
    exact, and the *logical* right shift extracts the Shoup quotient
    (an arithmetic shift would sign-extend products above 2^63).
    """
    np.multiply(values.view(np.uint64), table_shoup.view(np.uint64),
                out=q_buf.view(np.uint64))
    np.right_shift(q_buf.view(np.uint64), _SHOUP_SHIFT,
                   out=q_buf.view(np.uint64))
    np.multiply(values, table, out=values)
    np.multiply(q_buf, p_full, out=q_buf)
    np.subtract(values, q_buf, out=values)


@lru_cache(maxsize=None)
def basis_transformer(primes: tuple[int, ...], n: int) -> BasisTransformer:
    """Shared, cached batched transformer for one ``(primes, n)`` basis."""
    return BasisTransformer(tuple(primes), n)


# -- dispatching entry points -----------------------------------------------------


def _per_row_forward(primes: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    from ..poly.ring import ring_context

    n = matrix.shape[-1]
    rows = [
        ring_context(n, p).transformer.forward(row)
        for p, row in zip(primes, matrix, strict=True)
    ]
    return np.stack(rows)


def _per_row_inverse(primes: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    from ..poly.ring import ring_context

    n = matrix.shape[-1]
    rows = [
        ring_context(n, p).transformer.inverse(row)
        for p, row in zip(primes, matrix, strict=True)
    ]
    return np.stack(rows)


def ntt_rows(primes: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    """Forward-transform a residue matrix (or ``(j, k, n)`` stack).

    The production entry point every limb-loop call site was rewired
    onto: batched, or per-row for a basis the engine cannot serve (both
    routes update the transform counters, so telemetry comparisons stay
    meaningful).
    """
    if _use_per_row(primes, np.asarray(matrix).shape[-1]):
        arr = np.asarray(matrix, dtype=np.int64)
        out = (np.stack([_per_row_forward(primes, a) for a in arr])
               if arr.ndim == 3 else _per_row_forward(primes, arr))
        _count_transform("forward", int(np.prod(out.shape[:-1])))
        return out
    n = np.asarray(matrix).shape[-1]
    return basis_transformer(tuple(primes), n).forward(matrix)


def intt_rows_scaled(primes: tuple[int, ...], matrix: np.ndarray,
                     constants: tuple[int, ...]) -> np.ndarray:
    """Inverse-transform with per-channel constants folded in.

    Equivalent to ``(intt_rows(primes, matrix) * col(constants)) %
    col(primes)`` with the multiplies hidden inside the transform's
    twiddle tables; falls back to exactly that composition when the
    batched engine cannot run.
    """
    arr = np.asarray(matrix, dtype=np.int64)
    n = arr.shape[-1]
    if _use_per_row(primes, n):
        primes_col = np.array(primes, dtype=np.int64)[:, None]
        consts_col = np.array(
            [c % p for c, p in zip(constants, primes, strict=True)], dtype=np.int64
        )[:, None]
        return (intt_rows(primes, arr) * consts_col) % primes_col
    return basis_transformer(tuple(primes), n).inverse_scaled(
        arr, tuple(int(c) for c in constants)
    )


def ntt_broadcast_rows(primes: tuple[int, ...], rows: np.ndarray,
                       lazy: bool = False) -> np.ndarray:
    """Forward NTT of raw digit rows under every prime of ``primes``.

    The fused WordDecomp + NTT primitive: ``rows`` is ``(j, n)`` with
    non-negative entries below 2^30, the result ``(j, k, n)`` —
    bit-identical to broadcasting each row across the basis, reducing
    per channel, and calling :func:`ntt_rows`. Falls back to exactly
    that (per-row) recipe when the batched engine cannot run.
    """
    arr = np.asarray(rows, dtype=np.int64)
    n = arr.shape[-1]
    if _use_per_row(primes, n):
        primes_col = np.array(primes, dtype=np.int64)[:, None]
        tiled = arr[:, None, :] % primes_col[None, :, :]
        return ntt_rows(primes, tiled)
    return basis_transformer(tuple(primes), n).forward_broadcast(
        arr, lazy=lazy
    )


def intt_rows(primes: tuple[int, ...], matrix: np.ndarray) -> np.ndarray:
    """Inverse-transform a residue matrix (or stack); see :func:`ntt_rows`."""
    if _use_per_row(primes, np.asarray(matrix).shape[-1]):
        arr = np.asarray(matrix, dtype=np.int64)
        out = (np.stack([_per_row_inverse(primes, a) for a in arr])
               if arr.ndim == 3 else _per_row_inverse(primes, arr))
        _count_transform("inverse", int(np.prod(out.shape[:-1])))
        return out
    n = np.asarray(matrix).shape[-1]
    return basis_transformer(tuple(primes), n).inverse(matrix)
