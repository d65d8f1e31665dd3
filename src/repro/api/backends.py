"""Program executors: the ``Backend`` protocol and the functional one.

A backend consumes a compiled :class:`~repro.api.program.HEProgram`.
:class:`LocalBackend` here executes it for real — every graph node runs
through the FV :class:`~repro.fv.evaluator.Evaluator` (multiplication +
relinearisation exactly as the paper's coprocessor computes them) or the
:class:`~repro.fv.galois.GaloisEngine` (rotations), and the results are
verified against the measured noise budget before they are handed back.
The simulation twin lives in :mod:`repro.api.simulated`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from contextlib import nullcontext

from ..errors import NoiseBudgetExhausted, ParameterError
from ..fv.ciphertext import Ciphertext
from ..nttmath.batch import transform_counts
from ..obs import TraceReport, Tracer
from ..parallel import Executor, ExecutionConfig, build_executor, use_executor
from .program import CiphertextHandle, ExprNode, HEProgram, OpKind
from .session import Session


def _count_diff(before: dict[str, int],
                after: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in after
            if after[key] != before[key]}


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute an :class:`HEProgram`."""

    def run(self, program: HEProgram, **kwargs):  # pragma: no cover
        ...


class ProgramResult:
    """Outputs of one functional execution, addressable by label."""

    def __init__(self, session: Session,
                 outputs: dict[str, CiphertextHandle],
                 trace: TraceReport | None = None) -> None:
        self.session = session
        self.outputs = outputs
        #: Wall-clock trace of the run that produced these outputs.
        self.trace = trace

    def __getitem__(self, label: str) -> CiphertextHandle:
        return self.outputs[label]

    def handle(self, label: str = "out") -> CiphertextHandle:
        return self.outputs[label]

    def decrypt(self, label: str = "out", size: int | None = None):
        """Decrypt one output into the session encoder's domain."""
        return self.session.decrypt(self.outputs[label], size)

    def ciphertext(self, label: str = "out") -> Ciphertext:
        """One output's ciphertext as it rests (evaluation domain).

        Unlike :attr:`CiphertextHandle.ciphertext`, this makes no
        coefficient-domain copy: the result serialises straight into
        the NTT-domain wire format.
        """
        return self.outputs[label].node.cached

    def noise_budget_bits(self, label: str = "out") -> float:
        return self.session.noise_budget_bits(self.outputs[label])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProgramResult({list(self.outputs)})"


class LocalBackend:
    """Execute a program functionally over the session's evaluator.

    Node results are cached on the expression graph, so overlapping
    programs (or a decrypt of an intermediate handle followed by more
    building) never recompute shared work. With ``verify=True`` every
    output's *measured* noise budget is checked after execution — a
    non-positive budget means the decryption is garbage, and the
    backend refuses to return it silently.

    Ciphertexts rest in the evaluation domain between ops, where HEAX
    and the paper's coprocessor keep their operands: rotations are slot
    permutations plus a key switch, plaintext multiplies are pointwise
    products against the session's plaintext-constant NTT pool, and
    MULTIPLY lifts resident operands in the evaluation domain and emits
    a resident product. Outputs stay resident too; decryption and the
    NTT-domain wire format consume them as they are. Coefficients are
    visited only where an algorithm needs them (c2's WordDecomp, the
    Galois c1 digits, the lift's quotient estimate) or where a caller
    asks for :attr:`CiphertextHandle.ciphertext`. A coefficient-domain
    input (``Session.wrap`` or a version-1 wire load) is transformed
    forward once, the first time an op consumes it, and the result is
    written back onto its node. :attr:`telemetry` reports the
    transform counts of the last run.
    """

    def __init__(self, session: Session, *, verify: bool = True,
                 executor: Executor | ExecutionConfig | str | None
                 = None) -> None:
        self.session = session
        self.verify = verify
        # Executor selection: None defers to the ambient scope / env
        # default at run time; a mode string or ExecutionConfig is
        # built once here (degrading loudly to serial on failure); a
        # live Executor is used as-is (caller keeps ownership).
        if isinstance(executor, str):
            executor = ExecutionConfig(mode=executor.strip().lower())
        if isinstance(executor, ExecutionConfig):
            executor = build_executor(executor)
        self.executor: Executor | None = executor
        #: Transform counts of the most recent :meth:`run`.
        self.last_transform_counts: dict[str, int] = {}
        #: Wall-clock trace of the most recent :meth:`run` — per-op
        #: spans (with transform-count diffs and nested engine
        #: transform spans) reducible to rollups and a critical path.
        self.last_trace: TraceReport | None = None
        #: Accumulated transform counts across all runs of this backend.
        self.total_transform_counts = {
            key: 0 for key in transform_counts()
        }

    @property
    def telemetry(self) -> dict:
        """Execution telemetry: transform counts and executor mode."""
        return {
            "executor": ("ambient" if self.executor is None
                         else self.executor.name),
            "workers": (0 if self.executor is None
                        else self.executor.workers),
            "last_run": dict(self.last_transform_counts),
            "total": dict(self.total_transform_counts),
        }

    def run(self, program: HEProgram, **kwargs) -> ProgramResult:
        if kwargs:
            raise TypeError(
                f"LocalBackend.run got unknown options {sorted(kwargs)}"
            )
        # Identity is the cheap check; equal parameter sets from
        # two constructions are fine too.
        if (program.params is not self.session.params
                and program.params != self.session.params):
            raise ParameterError(
                "program was compiled for different parameters"
            )
        before = transform_counts()
        tracer = Tracer("heprogram.run", kind="program")
        order = {id(node): i for i, node in enumerate(program.nodes)}
        poly_bytes = program.params.poly_bytes
        # Spans measure per-op wall clock; each op span also records
        # the transform-counter diff across its execution, so the
        # TraceReport's totals reconcile exactly with the run-level
        # registry diff (the tests assert the equality).
        scope = (use_executor(self.executor)
                 if self.executor is not None else nullcontext())
        with scope, tracer.activate():
            steps = program.rotation_steps()
            if steps or program.uses_sum_slots:
                # Program-wide Galois key prefetch: one deduped keygen
                # batch up front instead of per-op cache probes.
                with tracer.span("prefetch_galois", kind="phase") as sp:
                    pre_before = transform_counts()
                    sp.attrs["steps"] = len(steps)
                    sp.attrs["generated"] = (
                        self.session.prefetch_rotation_keys(steps)
                        if steps else 0
                    )
                    if program.uses_sum_slots:
                        self.session.summation_keys()
                    sp.attrs["transforms"] = _count_diff(
                        pre_before, transform_counts()
                    )
            # Hoisted rotation groups (optimiser analysis): executing
            # the first member computes every member off one shared
            # digit transform; later members hit the graph cache.
            hoisted = {id(member): group for group in program.hoist_groups
                       for member in group}
            for node in program.nodes:
                if node.cached is not None:
                    continue
                with tracer.span(
                    node.op.name.lower(), kind="op", op=node.op.name,
                    node=order[id(node)],
                    deps=tuple(order[id(a)] for a in node.args),
                    bytes_moved=(2 * len(node.args) + 2) * poly_bytes,
                ) as sp:
                    op_before = transform_counts()
                    group = hoisted.get(id(node))
                    if group is not None:
                        sp.attrs["hoisted"] = self._execute_hoisted(group)
                    if node.cached is None:
                        node.cached = self._execute(node)
                    sp.attrs["transforms"] = _count_diff(
                        op_before, transform_counts()
                    )
            outputs = {
                label: CiphertextHandle(node, self.session)
                for label, node in program.outputs.items()
            }
            if self.verify:
                # Noise measurement transforms (decryption forward-
                # transforms the parts multiplied by s); tracing it as a
                # phase keeps the trace totals equal to the run-level
                # registry diff even with verification on. The measured
                # budgets stay on the span (``noise_budget_bits``).
                with tracer.span("verify_outputs", kind="phase") as sp:
                    ver_before = transform_counts()
                    budgets = sp.attrs["noise_budget_bits"] = {}
                    for label, handle in outputs.items():
                        budget = self.session.noise_budget_bits(handle)
                        budgets[label] = budget
                        if budget <= 0:
                            raise NoiseBudgetExhausted(
                                f"output {label!r} decrypts with no "
                                f"noise budget left ({budget:.1f} bits)"
                            )
                    sp.attrs["transforms"] = _count_diff(
                        ver_before, transform_counts()
                    )
        after = transform_counts()
        self.last_trace = tracer.report()
        self.last_transform_counts = {
            key: after[key] - before[key] for key in after
        }
        for key, value in self.last_transform_counts.items():
            self.total_transform_counts[key] += value
        return ProgramResult(self.session, outputs,
                             trace=self.last_trace)

    # -- node dispatch -----------------------------------------------------------------

    def _operand(self, node: ExprNode) -> Ciphertext:
        """An argument's ciphertext, ingesting a coefficient-domain input.

        A wrapped or version-1-loaded INPUT is the only node that can
        rest in the coefficient domain; its forward transform is
        written back, so every later consumer (in this program or the
        next) reads the resident form.
        """
        ct = node.cached
        if node.op is OpKind.INPUT and not ct.ntt_resident:
            ct = node.cached = self.session.context.to_ntt_ct(ct)
        return ct

    def _execute_hoisted(self, group: tuple[ExprNode, ...]) -> int:
        """Materialise a hoisted rotation group off one digit transform.

        All pending members share their source's digit-decomposition
        NTT via :meth:`~repro.fv.galois.GaloisEngine.apply_many_resident`;
        results land in each member's graph cache, so the normal node
        loop sees them as already computed.
        """
        session = self.session
        pending = [m for m in group if m.cached is None]
        keys = {
            int(m.payload): session.rotation_key(m.payload)
            for m in pending
        }
        results = session.galois.apply_many_resident(
            self._operand(group[0].args[0]), keys
        )
        for member in pending:
            member.cached = results[int(member.payload)]
        return len(pending)

    def _execute(self, node: ExprNode) -> Ciphertext:
        session = self.session
        context = session.context
        if node.op is OpKind.INPUT:
            raise ParameterError(
                "program has an unbound input (wrap() a ciphertext first)"
            )
        args = [self._operand(arg) for arg in node.args]
        if node.op in (OpKind.ADD, OpKind.SUB):
            op = context.add if node.op is OpKind.ADD else context.sub
            return op(args[0], args[1])
        if node.op is OpKind.NEGATE:
            return context.negate(args[0])
        if node.op is OpKind.ADD_PLAIN:
            return context.add_plain(
                args[0], node.payload,
                delta_m_ntt=session.plain_delta_ntt(node.payload),
            )
        if node.op is OpKind.MUL_PLAIN:
            return context.mul_plain(args[0], node.payload,
                                     m_ntt=session.plain_ntt(node.payload))
        if node.op in (OpKind.MULTIPLY, OpKind.MULTIPLY_RAW):
            # On bases where ``Evaluator.resident_tensor_ok`` is False
            # the tensor step takes coefficient copies of its operands
            # (the one fallback), leaving the resident nodes as they are.
            evaluator = session.evaluator
            if node.op is OpKind.MULTIPLY_RAW:
                # Lazy-relin placement: the three-part product stays in
                # the coefficient domain (c2 feeds WordDecomp) through
                # its ADD tree; the deferred RELINEARIZE at the root
                # folds it back into a resident two-part ciphertext.
                return evaluator.multiply_raw(args[0], args[1])
            return evaluator.multiply(args[0], args[1], session.keys.relin,
                                      resident=True)
        if node.op is OpKind.RELINEARIZE:
            return session.evaluator.relinearize(args[0], session.keys.relin,
                                                 resident=True)
        if node.op is OpKind.ROTATE:
            return session.galois.apply_resident(
                args[0], session.rotation_key(node.payload)
            )
        if node.op is OpKind.SUM_SLOTS:
            return session.galois.sum_all_slots(args[0],
                                                session.summation_keys())
        raise ParameterError(f"unknown op {node.op!r}")  # pragma: no cover
