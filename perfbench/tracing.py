"""Outside-in span tracing over the Fig. 2 stages.

The benchmark measures the program from outside: :func:`traced` wraps
the public functions listed in :data:`TARGETS` with timing wrappers for
the duration of a ``with`` block and restores the originals on exit,
so untraced runs execute unwrapped code. Two kinds of target:

* class methods, patched on the class (``module:Class``);
* module functions, patched in the namespace of their call site
  (``module``), because callers bind those names at import time.

Each span records name, start, end, parent and request id. Spans stay
in memory in a :class:`SpanRecorder`; the benchmark writes them out
when the run ends. A span's *self time* is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: (span name, owner, attribute names). The owner is ``module:Class``
#: for methods and ``module`` for call-site module functions.
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("ntt.forward", "repro.nttmath.batch:BasisTransformer", ("forward",)),
    ("ntt.inverse", "repro.nttmath.batch:BasisTransformer", ("inverse",)),
    ("ntt.inverse_scaled", "repro.nttmath.batch:BasisTransformer",
     ("inverse_scaled",)),
    ("ntt.forward_broadcast", "repro.nttmath.batch:BasisTransformer",
     ("forward_broadcast",)),
    ("ntt.pointwise", "repro.nttmath.batch:BasisTransformer",
     ("pointwise",)),
    ("rns.lift", "repro.fv.evaluator", ("lift_hps", "lift_hps_ntt")),
    ("rns.scale", "repro.fv.evaluator", ("scale_hps", "scale_hps_ntt")),
    ("rns.digits", "repro.fv.evaluator:Evaluator", ("rns_digits",)),
    ("rns.reconstruct", "repro.rns.basis:RnsBasis",
     ("reconstruct_coeffs_centered",)),
    ("fv.encrypt", "repro.fv.scheme:FvContext", ("encrypt",)),
    ("fv.decrypt", "repro.fv.scheme:FvContext", ("decrypt_with_noise",)),
    ("fv.encode", "repro.fv.encoder:BatchEncoder", ("encode",)),
    ("fv.decode", "repro.fv.encoder:BatchEncoder", ("decode",)),
    ("fv.tensor", "repro.fv.evaluator:Evaluator", ("multiply_raw",)),
    ("fv.relin", "repro.fv.evaluator:Evaluator", ("relinearize",)),
    ("fv.rotate", "repro.fv.galois:GaloisEngine",
     ("apply", "apply_resident", "apply_many_resident")),
    ("fv.plain", "repro.fv.scheme:FvContext", ("mul_plain", "add_plain")),
    ("fv.add", "repro.fv.scheme:FvContext", ("add", "sub", "negate")),
    ("fv.convert", "repro.fv.scheme:FvContext",
     ("to_ntt_ct", "to_coeff_ct")),
    ("fv.keygen", "repro.fv.scheme:FvContext", ("keygen",)),
    ("fv.galois_keygen", "repro.fv.galois:GaloisEngine", ("keygen",)),
    ("api.compile", "repro.api.session:Session", ("compile",)),
    ("api.run", "repro.api.backends:LocalBackend", ("run",)),
)

#: Name of the benchmark's own per-request root span.
REQUEST = "request"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int | None
    #: Time covered by direct children (filled in as they close).
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanRecorder:
    """In-memory span store with a per-thread open-span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Request id stamped on new spans (``None`` during set-up).
        self.request: int | None = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               stack[-1] if stack else -1, self.request))
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    # -- reductions --------------------------------------------------------------

    def request_spans(self) -> list[Span]:
        return [s for s in self.spans if s.request is not None]

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name over request spans."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.request_spans():
            totals[span.name] += span.self_time
        return dict(totals)

    def calls(self) -> dict[str, int]:
        """Span count per name over request spans."""
        totals: dict[str, int] = defaultdict(int)
        for span in self.request_spans():
            totals[span.name] += 1
        return dict(totals)

    def calls_by_request(self, name: str) -> dict[int, int]:
        counts: dict[int, int] = defaultdict(int)
        for span in self.request_spans():
            if span.name == name:
                counts[span.request] += 1
        return dict(counts)

    def setup_seconds(self, name: str) -> float:
        """Inclusive time of the outermost set-up spans called ``name``."""
        spans = self.spans
        total = 0.0
        for span in spans:
            if span.request is not None or span.name != name:
                continue
            parent = span.parent
            while parent >= 0 and spans[parent].name != name:
                parent = spans[parent].parent
            if parent < 0:
                total += span.duration
        return total

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request}
            for s in self.spans
        ]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _timed(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index)

    return wrapper


def originals() -> dict[tuple[str, str], object]:
    """The current (unwrapped) object behind every target attribute."""
    found = {}
    for _, owner, attrs in TARGETS:
        target = _resolve(owner)
        for attr in attrs:
            found[(owner, attr)] = vars(target)[attr]
    return found


@contextmanager
def traced(recorder: SpanRecorder):
    """Install the timing wrappers for the block, then restore them."""
    saved: list[tuple[object, str, object]] = []
    try:
        for name, owner, attrs in TARGETS:
            target = _resolve(owner)
            for attr in attrs:
                # Patch only attributes the owner defines itself, so
                # restoring cannot leave a shadowing copy behind.
                original = vars(target)[attr]
                if not callable(original):
                    raise TypeError(f"{owner}.{attr} is not a function")
                setattr(target, attr, _timed(recorder, name, original))
                saved.append((target, attr, original))
        yield recorder
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
