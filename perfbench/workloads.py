"""The benchmark's workloads: seeded inputs, the program, the reference.

Every workload is one closed-loop client of :mod:`repro.api`. A request
encrypts fresh inputs, compiles the program, runs it on
:class:`~repro.api.LocalBackend` (default ``verify=True``) and decrypts
the output. The plaintext reference is plain numpy mod t, computed
before the request's timed span and independent of the FV code, except
that rotations map slots through :func:`repro.fv.galois.slot_permutation`
(the batch encoder's slot order is not the natural one, so ``np.roll``
would be wrong).

All workloads use t = 65537 with the batch encoder.
"""

from __future__ import annotations

import numpy as np

from repro.api import Session
from repro.fv.galois import rotation_element, slot_permutation
from repro.params import ParameterSet, hpca19, large_ring

T = 65537

#: Number of Halevi-Shoup diagonals in ``rot_matvec_4k``.
DIAGONALS = 8


class Workload:
    """One workload bound to a parameter set and a seed.

    ``setup()`` builds the session (keygen), the rotation keys the
    program needs and the encoded plaintext constants. ``inputs()``
    draws one request's slot vectors from the seeded generator,
    ``build()`` turns encrypted handles into the output handle, and
    ``reference()`` computes the expected slots mod t.
    """

    name = ""
    fresh_inputs = 1
    optimize = False

    def __init__(self, params: ParameterSet, seed: int) -> None:
        self.params = params
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.session: Session | None = None
        #: The program compiled by the most recent request.
        self.last_program = None

    def random_slots(self) -> np.ndarray:
        return self.rng.integers(0, T, size=self.params.n, dtype=np.int64)

    def setup(self) -> None:
        self.session = Session(self.params, seed=self.seed,
                               encoder="batch")
        self.setup_constants()

    def setup_constants(self) -> None:
        """Encode the workload's plaintext constants (none by default)."""

    def inputs(self) -> list[np.ndarray]:
        return [self.random_slots() for _ in range(self.fresh_inputs)]

    def build(self, handles):
        raise NotImplementedError

    def reference(self, values: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def rotation_steps(self) -> list[int]:
        return []

    def compile(self, handles):
        return self.session.compile(self.build(handles), name=self.name,
                                    optimize=self.optimize)


class MultTree(Workload):
    """``(a*b)*(c*d)``: three Mult+relin at depth 2, no Galois keys.

    The gemm NTT engine, lift/scale and relinearisation do most of the
    work, so engine, BLAS-thread and Mult-domain changes show here.
    """

    name = "mult_tree_8k"
    fresh_inputs = 4

    def build(self, handles):
        a, b, c, d = handles
        return (a * b) * (c * d)

    def reference(self, values):
        a, b, c, d = values
        return (((a * b) % T) * ((c * d) % T)) % T


class RotMatvec(Workload):
    """Halevi-Shoup diagonal mat-vec ``sum_k rot(x, k) * diag_k``.

    Compiled with ``optimize=True``, so the seven rotations share one
    hoisted digit transform. The diagonals are encoded once and reused
    through the session's plaintext NTT pool. Keyswitching does the
    work; there is no lift or scale.
    """

    name = "rot_matvec_4k"
    optimize = True

    def setup_constants(self) -> None:
        self.diagonals = [self.random_slots() for _ in range(DIAGONALS)]
        self.diagonal_plains = [self.session.encode(d)
                                for d in self.diagonals]
        self.perms = [
            slot_permutation(self.params.n,
                             rotation_element(k, self.params.n))
            for k in range(DIAGONALS)
        ]

    def rotation_steps(self) -> list[int]:
        return list(range(1, DIAGONALS))

    def build(self, handles):
        (x,) = handles
        total = x * self.diagonal_plains[0]
        for k in range(1, DIAGONALS):
            total = total + x.rotate(k) * self.diagonal_plains[k]
        return total

    def reference(self, values):
        (x,) = values
        total = np.zeros_like(x)
        for perm, diag in zip(self.perms, self.diagonals, strict=True):
            total = (total + x[perm] * diag) % T
        return total


class PlainAffine(Workload):
    """``x*w + b`` with plaintext ``w`` and ``b``: MulPlain + AddPlain.

    Ingress and egress dominate: encrypt, domain conversions, the
    verify decrypt and the client decrypt (CRT reconstruction). Engine
    wins should not move it; moving conversions to the boundary should.

    Run it by name; it is not in ``BENCHMARK.json``'s workload set. On
    a 2-vCPU VM its request time moved by a third between runs minutes
    apart (the pure-Python CRT reconstruction is the stage most exposed
    to host load), wider than any regression bound the set can use.
    """

    name = "plain_affine_4k"

    def setup_constants(self) -> None:
        self.weights = self.random_slots()
        self.bias = self.random_slots()
        self.weights_plain = self.session.encode(self.weights)
        self.bias_plain = self.session.encode(self.bias)

    def build(self, handles):
        (x,) = handles
        return x * self.weights_plain + self.bias_plain

    def reference(self, values):
        (x,) = values
        return (x * self.weights + self.bias) % T


#: Workload name -> (class, default parameter set).
WORKLOADS = {
    MultTree.name: (MultTree, lambda: large_ring(8192, t=T)),
    RotMatvec.name: (RotMatvec, lambda: hpca19(t=T)),
    PlainAffine.name: (PlainAffine, lambda: hpca19(t=T)),
}


def make_workload(name: str, seed: int,
                  params: ParameterSet | None = None) -> Workload:
    """Instantiate a workload, at its own parameter set by default."""
    cls, default_params = WORKLOADS[name]
    return cls(params if params is not None else default_params(), seed)
