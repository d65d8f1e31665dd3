"""Closed-loop measurement of one workload, untraced or traced.

One client keeps one request outstanding at a time; the next starts
when the previous one finishes. A request is what a client of
:mod:`repro.api` waits for: encrypt the inputs, compile the program,
run it on :class:`~repro.api.LocalBackend` (``verify=True``) and
decrypt the output. The numpy reference is computed before the timed
span and compared after it; a request that raises or decrypts to
anything else counts as failed.

:func:`end_to_end` produces the untraced metrics, :func:`per_layer`
the traced ones (an untraced phase first, for the overhead ratio,
then a traced phase with fresh set-up so key generation is traced
too).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import LocalBackend, SimulatedBackend
from repro.nttmath.batch import transform_counts
from repro.parallel import active_executor
from repro.parallel.config import available_cores
from tracing import REQUEST, SpanRecorder, traced
from workloads import make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
COUNTS_RECORD = HERE / "counts.json"

END_TO_END_UNITS = {
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_share": "share",
}

#: Metric -> span whose per-request mean self time it reports, in ms.
_LAYER_SPANS = {
    "ntt.forward_ms": "ntt.forward",
    "ntt.inverse_ms": "ntt.inverse",
    "ntt.inverse_scaled_ms": "ntt.inverse_scaled",
    "ntt.forward_broadcast_ms": "ntt.forward_broadcast",
    "ntt.pointwise_ms": "ntt.pointwise",
    "rns.lift_ms": "rns.lift",
    "rns.scale_ms": "rns.scale",
    "rns.digits_ms": "rns.digits",
    "rns.reconstruct_ms": "rns.reconstruct",
    "fv.encrypt_ms": "fv.encrypt",
    "fv.decrypt_ms": "fv.decrypt",
    "fv.encode_ms": "fv.encode",
    "fv.decode_ms": "fv.decode",
    "fv.tensor_ms": "fv.tensor",
    "fv.relin_ms": "fv.relin",
    "fv.rotate_ms": "fv.rotate",
    "fv.plain_ms": "fv.plain",
    "fv.add_ms": "fv.add",
    "fv.convert_ms": "fv.convert",
    "api.compile_ms": "api.compile",
    "api.run_ms": "api.run",
}

#: Exact per-request counts; they must repeat on every request.
EXACT_COUNTS = ("ntt.forward_rows", "ntt.inverse_rows", "ntt.fallbacks",
                "fv.decrypt_calls", "fv.convert_calls",
                "optim.keyswitches")

PER_LAYER_UNITS = {
    **{name: "ms" for name in _LAYER_SPANS},
    **{name: "count" for name in EXACT_COUNTS},
    "fv.keygen_s": "s",
    "fv.galois_keygen_s": "s",
    "model.compute_ms": "ms",
    "model.critical_path_ms": "ms",
    "trace.unattributed_share": "share",
    "trace.overhead_share": "share",
}

#: Set-ups per end-to-end run; ``setup_s`` is their median. The first
#: runs in this process, the others in fresh processes, so every
#: sample pays the same cold prime, table and plan construction.
SETUP_SAMPLES = 3


# -- one request -----------------------------------------------------------------


def run_request(workload, values):
    """One client request; returns the decrypted slot vector."""
    session = workload.session
    handles = [session.encrypt(v) for v in values]
    program = workload.compile(handles)
    workload.last_program = program
    return LocalBackend(session).run(program).decrypt()


def _transform_diff(before: dict[str, int]) -> dict[str, int]:
    after = transform_counts()
    return {
        "ntt.forward_rows": after["forward_rows"] - before["forward_rows"],
        "ntt.inverse_rows": after["inverse_rows"] - before["inverse_rows"],
        "ntt.fallbacks": after["fallback_calls"] - before["fallback_calls"],
    }


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    counts: list[dict[str, int]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def correct(self) -> int:
        return self.attempted - self.failed

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) * 1e3


def check_request(workload, values, log=print, index: int | str = 0,
                  recorder: SpanRecorder | None = None):
    """Run one request and compare it with the reference.

    Returns ``(seconds, ok)``. The reference is computed before the
    clock starts and the comparison after it stops; with a recorder
    the request's root span covers exactly the timed region.
    Exceptions and mismatches are printed and count as a failure.
    """
    expected = workload.reference(values)
    span = recorder.begin(REQUEST) if recorder is not None else None
    start = time.perf_counter()
    try:
        got = run_request(workload, values)
    except Exception:  # noqa: BLE001 - a failed request, not a crash
        got = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    if span is not None:
        recorder.end(span)
    if got is None:
        log(f"request {index} raised:\n{error}")
        return seconds, False
    got = np.asarray(got, dtype=np.int64)
    if got.shape != expected.shape:
        log(f"request {index} mismatch: shape {got.shape}, expected "
            f"{expected.shape}")
        return seconds, False
    wrong = np.flatnonzero(got != expected)
    if wrong.size:
        log(f"request {index} mismatch: {wrong.size} of {expected.size} "
            f"slots differ from the reference (first at slot "
            f"{int(wrong[0])})")
        return seconds, False
    return seconds, True


def measure(workload, seconds: float, recorder: SpanRecorder | None = None,
            log=print) -> Phase:
    """Closed loop for ``seconds`` (at least one request)."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while not phase.latencies or time.perf_counter() < deadline:
        values = workload.inputs()
        index = phase.attempted
        if recorder is not None:
            recorder.request = index
        before = transform_counts()
        elapsed, ok = check_request(workload, values, log, index,
                                    recorder)
        phase.counts.append(_transform_diff(before))
        if recorder is not None:
            recorder.request = None
        phase.latencies.append(elapsed)
        phase.failed += not ok
    return phase


# -- set-up ------------------------------------------------------------------------


def setup(name: str, seed: int, params=None, log=print):
    """Build the workload and run one untimed, checked warm-up request.

    Returns ``(workload, seconds)``. Covers parameter-set and prime
    construction, keygen, rotation keys, plaintext constants and the
    warm-up request that builds the gemm plans lazily.
    """
    start = time.perf_counter()
    workload = make_workload(name, seed, params)
    workload.setup()
    workload.session.prefetch_rotation_keys(workload.rotation_steps())
    _, ok = check_request(workload, workload.inputs(), log, "warm-up")
    seconds = time.perf_counter() - start
    if not ok:
        raise RuntimeError(f"{name}: warm-up request failed")
    return workload, seconds


def _setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- metadata ----------------------------------------------------------------------


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def blas_info() -> dict:
    """numpy's BLAS and its thread count (read only, never set).

    The count comes from the ``scipy_openblas`` export numpy's bundled
    OpenBLAS provides; it is ``None`` for any other BLAS.
    """
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": None}
    for path in glob.glob(os.path.join(os.path.dirname(np.__path__[0]),
                                       "numpy.libs",
                                       "libscipy_openblas*.so")):
        getter = getattr(ctypes.CDLL(path),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            info["blas_threads"] = int(getter())
    return info


def metadata(workload) -> dict:
    params = workload.params
    executor = active_executor()
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "available_cores": available_cores(),
        "executor": executor.name,
        "executor_workers": executor.workers,
        "params": params.name,
        "n": params.n,
        "k_q": params.k_q,
        "k_p": params.k_p,
        "t": params.t,
        "seed": workload.seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run ----------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _repeat_check(phase: Phase, extra: list[dict[str, int]] | None = None,
                  log=print) -> bool:
    """Exact counts must repeat on every request of a run."""
    rows = phase.counts
    if extra is not None:
        rows = [{**a, **b} for a, b in zip(rows, extra, strict=True)]
    distinct = [row for i, row in enumerate(rows) if row not in rows[:i]]
    if len(distinct) == 1:
        return True
    log(f"exact counts differ between requests: {distinct}")
    return False


def end_to_end(name: str, seed: int, seconds: float, *,
               setup_samples: int = SETUP_SAMPLES, params=None,
               log=print) -> dict:
    """The untraced run: the ``END_TO_END_UNITS`` metrics."""
    workload, first = setup(name, seed, params, log)
    samples = [first] + [_setup_in_fresh_process(name, seed)
                         for _ in range(setup_samples - 1)]
    phase = measure(workload, seconds, log=log)
    repeat_ok = _repeat_check(phase, log=log)
    metrics = {
        "request_ms_p50": _metric(phase.percentile_ms(50), "ms"),
        "request_ms_p90": _metric(phase.percentile_ms(90), "ms"),
        "requests_per_s": _metric(phase.correct / sum(phase.latencies),
                                  "1/s"),
        "setup_s": _metric(statistics.median(samples), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "correct_share": _metric(phase.correct / phase.attempted,
                                 "share"),
    }
    return {
        "correct": phase.failed == 0 and repeat_ok,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
        "details": {
            "beyond_p90": phase.attempted - math.ceil(
                0.9 * phase.attempted),
            "failed_share": phase.failed / phase.attempted,
            "latencies_s": phase.latencies,
            "setup_samples_s": samples,
            "counts": phase.counts[0],
            "metadata": metadata(workload),
        },
    }


def model_metrics(workload) -> dict[str, float]:
    """Simulated FPGA time of the workload's program (cycle model)."""
    lowered = SimulatedBackend.over_runtime(workload.params).lower(
        workload.last_program
    )
    return {
        "model.compute_ms": lowered.compute_seconds() * 1e3,
        "model.critical_path_ms": lowered.critical_path_seconds() * 1e3,
        "optim.keyswitches": lowered.keyswitch_ops(),
    }


def per_layer(name: str, seed: int, seconds: float, *, params=None,
              log=print) -> tuple[dict, SpanRecorder]:
    """The traced run: the ``PER_LAYER_UNITS`` metrics and the spans.

    Half of ``seconds`` measures untraced (the overhead baseline), the
    other half traced, after a fresh traced set-up.
    """
    workload, _ = setup(name, seed, params, log)
    plain = measure(workload, seconds / 2, log=log)
    recorder = SpanRecorder()
    with traced(recorder):
        workload, _ = setup(name, seed, params, log)
        phase = measure(workload, seconds / 2, recorder, log)
    decrypts = recorder.calls_by_request("fv.decrypt")
    converts = recorder.calls_by_request("fv.convert")
    per_request = [
        {"fv.decrypt_calls": decrypts.get(i, 0),
         "fv.convert_calls": converts.get(i, 0)}
        for i in range(phase.attempted)
    ]
    repeat_ok = (_repeat_check(plain, log=log)
                 and _repeat_check(phase, per_request, log))
    requests = phase.attempted
    self_s = recorder.self_seconds()
    metrics: dict[str, float] = {
        metric: self_s.get(span, 0.0) * 1e3 / requests
        for metric, span in _LAYER_SPANS.items()
    }
    metrics.update(phase.counts[0])
    metrics.update(per_request[0])
    metrics["fv.keygen_s"] = recorder.setup_seconds("fv.keygen")
    metrics["fv.galois_keygen_s"] = recorder.setup_seconds(
        "fv.galois_keygen")
    metrics.update(model_metrics(workload))
    metrics["trace.unattributed_share"] = (
        self_s.get(REQUEST, 0.0) / sum(phase.latencies))
    metrics["trace.overhead_share"] = (
        float(np.median(phase.latencies))
        / float(np.median(plain.latencies)) - 1.0)
    attempted = plain.attempted + phase.attempted
    failed = plain.failed + phase.failed
    result = {
        "correct": failed == 0 and repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: _metric(metrics[key], unit)
                    for key, unit in PER_LAYER_UNITS.items()},
        "details": {
            "traced_requests": requests,
            "traced_ms_p50": phase.percentile_ms(50),
            "traced_ms_mean": sum(phase.latencies) * 1e3 / requests,
            "untraced_ms_p50": plain.percentile_ms(50),
            "span_calls_per_request": {
                key: value / requests
                for key, value in recorder.calls().items()
            },
            "metadata": metadata(workload),
        },
    }
    return result, recorder


def compare_counts(name: str, metrics: dict, log=print) -> None:
    """Report exact counts against the committed per-workload record.

    A difference is printed, not failed: a change that removes
    transforms is expected to move these counts, and should say so.
    """
    try:
        record = json.loads(COUNTS_RECORD.read_text()).get(name)
    except (OSError, ValueError):
        record = None
    got = {key: metrics[key]["value"] for key in EXACT_COUNTS}
    if record is None:
        log(f"exact counts (no record for {name}): {got}")
    elif record == got:
        log(f"exact counts match the record: {got}")
    else:
        log(f"exact counts differ from the record {record}: {got}")


def write_out(stem: str, result: dict,
              recorder: SpanRecorder | None = None) -> None:
    """Write the full result (and spans) under ``perfbench/out``."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if recorder is not None:
        (OUT_DIR / f"{stem}.spans.json").write_text(
            json.dumps(recorder.to_json()))


def render(result: dict) -> str:
    """Human-readable table: every metric by name with its unit."""
    lines = [f"{'metric':<28}{'value':>16}  unit"]
    for key, metric in result["metrics"].items():
        lines.append(f"{key:<28}{metric['value']:>16.6g}  {metric['unit']}")
    details = result["details"]
    if "beyond_p90" in details:
        lines.append(
            f"{result['attempted']} requests, {details['beyond_p90']} "
            f"beyond p90; failed_share {details['failed_share']:.4g} "
            f"({result['failed']}/{result['attempted']})")
    return "\n".join(lines)
