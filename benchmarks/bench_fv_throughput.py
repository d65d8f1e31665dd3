"""FV hot-path throughput: absolute wall time of the batched engine.

Measures Mult, Rotate, keygen, encrypt and decrypt latency, and
end-to-end ``HEProgram`` latency at the paper's production parameters
(n = 4096, full six-prime q basis) on the production path: the gemm-based
limb-parallel :class:`~repro.nttmath.batch.BasisTransformer`,
vectorised lift/scale conversions, fused WordDecomp+NTT digits, and
the NTT-resident ``LocalBackend`` executor.

Correctness gates run before any timing, against independent oracles:
every timed Mult decrypts to the plaintext negacyclic product mod t,
and the NTT-resident rotation is bit-identical to the coefficient-
domain one.

Timing protocol: the machine is shared, so each quantity is measured
as the minimum over several repetitions (the minimum estimates the
deterministic cost; noise only ever adds time), in gc-disabled
rounds. Results are printed and written to
``benchmarks/results/fv_throughput.txt``; each run also **appends**
one record — the headline block plus a ring-degree sweep
(n = 4096 ... 32768) and run metadata (git sha, numpy version) — to
the tracked perf trajectory in ``benchmarks/results/BENCH_fv_ops.json``.
Each gate is an absolute ms ceiling (see ``MULT_CEILING_MS``).

``test_cores_vs_throughput`` appends a second record type to the same
trajectory: Mult/s under the thread and process executors at 1/2/4/8
workers (the cores-vs-throughput curve of the parallel-executor PR),
with each parallel cell bit-checked against the serial product first.

Set ``REPRO_BENCH_FAST=1`` (the CI bench-smoke job does) for a
shortened run: same parameters and protocol, fewer repetitions, a
sweep truncated at n = 8192, and looser ceilings — single-digit
samples on a busy CI runner cannot gate the headline reliably.
Fast-mode records land in the separate ``BENCH_fv_ops_fast.json`` so a
local ``make bench-smoke`` can never pollute the committed full-mode
trajectory.
"""

import gc
import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np
from conftest import RESULTS_DIR, save_result

from repro.api import LocalBackend, Session
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.galois import GaloisEngine, galois_index_maps, rotation_element
from repro.fv.scheme import FvContext
from repro.nttmath.batch import batched_engine_ok
from repro.nttmath.ntt import negacyclic_convolution
from repro.obs import current_registry, diff_snapshots
from repro.parallel import available_cores, use_executor
from repro.params import hpca19, large_ring

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
MIN_ROUNDS = 2 if FAST else 3
MAX_ROUNDS = 3 if FAST else 10
REPS = 4 if FAST else 8
MODE = "fast" if FAST else "full"

#: Absolute regression ceilings in ms. The gates used to be speedup
#: floors over a re-created pre-batching path; each ceiling is the
#: per-row ms of the last committed full-mode record (3f1c01c in
#: BENCH_fv_ops.json) divided by that floor, so at that record it is
#: exactly as strict as the ratio gate it replaces:
#: Mult 142.705 ms / 4.5 (fast 3.5), Rotate 42.233 ms / 3.0 (fast 2.5).
MULT_CEILING_MS = 40.8 if FAST else 31.7
ROTATE_CEILING_MS = 16.9 if FAST else 14.1
#: The end-to-end HEProgram (Mult, Add, Rotate, MulPlain, Add and the
#: verify decrypt): the single-run program time of the same 3f1c01c
#: record (82.9 ms, which also paid one Galois keygen); fast mode
#: loosens it by the same factor as the Mult ceiling.
PROGRAM_CEILING_MS = 107.0 if FAST else 82.9

#: Ring-degree sweep (satellite of the large-ring PR). Fast mode stops
#: at 8192 so the CI smoke job stays quick; the nightly full-mode run
#: covers the whole support matrix. Ceilings as above: the 3f1c01c
#: per-row Mult ms at n = 4096 / 8192 / 16384 / 32768 (161.851 /
#: 784.607 / 1556.345 / 3437.623) over the old 2.5x floor (fast 2.0x).
SWEEP_CEILING_MS = ({4096: 80.9, 8192: 392.3} if FAST else
                    {4096: 64.7, 8192: 313.8, 16384: 622.5, 32768: 1375.0})
SWEEP_NS = tuple(SWEEP_CEILING_MS)
SWEEP_REPS = 2 if FAST else 3
SWEEP_ROUNDS = 1 if FAST else 2

#: Cores-vs-throughput sweep (satellite of the parallel-executor PR):
#: Mult/s at each worker count for the thread and process executors,
#: against the serial executor on the same ring. Fast mode trims the
#: matrix; the nightly full run records the whole trajectory.
CORES_NS = (8192,) if FAST else (8192, 32768)
CORES_WORKERS = (1, 2, 4) if FAST else (1, 2, 4, 8)
CORES_EXECUTORS = ("threads", "processes")
CORES_REPS = 2 if FAST else 3
#: The acceptance bar — ThreadPool@4 at >= 2x serial Mult/s on the
#: largest ring — is a statement about a machine with cores to spend;
#: it is asserted only where the affinity mask has at least this many.
CORES_FOR_SCALING_GATE = 4
CORES_SCALING_FLOOR = 2.0


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_metadata() -> dict:
    """Provenance attached to every trajectory record."""
    return {
        "git_sha": _git_sha(),
        "numpy_version": np.__version__,
        "mode": MODE,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def append_trajectory_record(json_path: Path, record: dict) -> None:
    """Append one record to the BENCH_fv_ops.json trajectory.

    The file is a JSON list, newest record last; a pre-trajectory
    single-object file (the PR 4 format) is adopted as the first
    point.
    """
    records: list = []
    if json_path.exists():
        existing = json.loads(json_path.read_text())
        records = existing if isinstance(existing, list) else [existing]
    records.append(record)
    json_path.write_text(json.dumps(records, indent=2) + "\n")


def min_time(fn, reps):
    """Minimum wall time of ``fn`` over ``reps`` runs (after a warmup)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_ms(fn, ceiling_ms, reps=REPS, min_rounds=MIN_ROUNDS,
            max_rounds=MAX_ROUNDS):
    """Minimum wall time of ``fn`` in ms over gc-disabled rounds.

    The cost is deterministic; on a shared machine noise only ever adds
    time, so the minimum over all samples estimates it. Sampling stops
    early once ``min_rounds`` are done and the estimate is under
    ``ceiling_ms`` (extra rounds only refine it downward). Returns the
    estimate and the per-round minima.
    """
    best = float("inf")
    rounds = []
    for round_index in range(max_rounds):
        gc.disable()
        try:
            rounds.append(min_time(fn, reps) * 1e3)
        finally:
            gc.enable()
        best = min(best, rounds[-1])
        if round_index + 1 >= min_rounds and best <= ceiling_ms:
            break
    return best, rounds


def check_mult_decrypts(context, keys, out, m1, m2) -> None:
    """Independent oracle: the product decrypts to m1 * m2 mod
    (x^n + 1, t), computed on the plaintexts by schoolbook
    convolution."""
    t = context.params.t
    want = negacyclic_convolution(m1.coeffs.tolist(), m2.coeffs.tolist(),
                                  t)
    assert context.decrypt(out, keys.secret).coeffs.tolist() == want


def program_reference(plains, params) -> np.ndarray:
    """Plaintext model of the bench graph ``(a*b + a).rotate(4) * 3 + b``
    under the coefficient encoder: negacyclic product, then the Galois
    automorphism x -> x^g moving coefficient i to i*g mod 2n with a
    sign flip past n."""
    t, n = params.t, params.n
    va, vb = (p.coeffs for p in plains)
    x = (np.array(negacyclic_convolution(va.tolist(), vb.tolist(), t))
         + va) % t
    dest, sign = galois_index_maps(n, rotation_element(4, n))
    rotated = np.zeros(n, dtype=np.int64)
    rotated[dest] = x * sign
    return (3 * rotated + vb) % t


def sweep_point(n: int) -> dict:
    """Mult wall time at one ring degree of the support matrix.

    Uses the same min-over-rounds protocol as the headline block, with
    fewer repetitions. The product is checked against the plaintext
    negacyclic product before any timing.
    """
    params = large_ring(n)
    assert batched_engine_ok(params.q_primes + params.p_primes, n), (
        f"gemm engine must serve the full tensor basis at n={n}"
    )
    context = FvContext(params, seed=2019)
    keys = context.keygen()
    evaluator = Evaluator(context)
    m1 = Plaintext.from_list([1, 1, 0, 1], params.n, params.t)
    m2 = Plaintext.from_list([1, 0, 1], params.n, params.t)
    ct1 = context.encrypt(m1, keys.public)
    ct2 = context.encrypt(m2, keys.public)
    check_mult_decrypts(context, keys,
                        evaluator.multiply(ct1, ct2, keys.relin), m1, m2)
    ms, _ = best_ms(lambda: evaluator.multiply(ct1, ct2, keys.relin),
                    SWEEP_CEILING_MS[n], reps=SWEEP_REPS, min_rounds=1,
                    max_rounds=SWEEP_ROUNDS)
    return {
        "n": n,
        "params": params.name,
        "k_q": params.k_q,
        "k_p": params.k_p,
        "log2_q": params.log2_q,
        "mult_ms": round(ms, 3),
        "mult_ops_per_s": round(1e3 / ms, 2),
        "mult_ceiling_ms": SWEEP_CEILING_MS[n],
    }


def test_fv_throughput():
    params = hpca19()
    metrics_before = current_registry().snapshot()
    context = FvContext(params, seed=2019)

    keygen_ms = min_time(lambda: FvContext(params, seed=7).keygen(),
                         2 if not FAST else 1) * 1e3

    keys = context.keygen()
    evaluator = Evaluator(context)
    engine = GaloisEngine(context)
    m1 = Plaintext.from_list([1, 1, 0, 1], params.n, params.t)
    m2 = Plaintext.from_list([1, 0, 1], params.n, params.t)
    ct1 = context.encrypt(m1, keys.public)
    ct2 = context.encrypt(m2, keys.public)

    encrypt_ms = min_time(
        lambda: context.encrypt(m1, keys.public), REPS
    ) * 1e3

    # Decryption of a coefficient-domain ciphertext (HPS rounding plus
    # the mixed-radix noise pass), checked against the plaintext first.
    assert context.decrypt(ct1, keys.secret) == m1
    decrypt_ms = min_time(
        lambda: context.decrypt(ct1, keys.secret), REPS
    ) * 1e3

    # Homomorphic multiplication (tensor + scale + relinearise).
    check_mult_decrypts(context, keys,
                        evaluator.multiply(ct1, ct2, keys.relin), m1, m2)
    mult_ms, mult_rounds = best_ms(
        lambda: evaluator.multiply(ct1, ct2, keys.relin), MULT_CEILING_MS)

    # Slot rotation: the NTT-resident rotation is timed, after a check
    # that it equals the coefficient-domain one bit for bit.
    rot_keys = engine.rotation_keygen(keys.secret, [1])
    resident_in = context.to_ntt_ct(ct1)
    coeff_rot = engine.apply(ct1, rot_keys[1])
    resident_rot = context.to_coeff_ct(
        engine.apply_resident(resident_in, rot_keys[1])
    )
    assert np.array_equal(coeff_rot.c0.residues, resident_rot.c0.residues)
    assert np.array_equal(coeff_rot.c1.residues, resident_rot.c1.residues)
    rotate_ms, rotate_rounds = best_ms(
        lambda: engine.apply_resident(resident_in, rot_keys[1]),
        ROTATE_CEILING_MS)

    # End-to-end HEProgram latency on a rotate-and-accumulate graph,
    # decrypted against the plaintext model first. Every sample runs a
    # fresh graph over the same input ciphertexts (node caches would
    # make repeat runs free); the transform telemetry shows that no
    # operand round-trips through the coefficient domain.
    session = Session(params, seed=11)
    plains = [session.encode(v) for v in ([3, 1, 4, 1, 5], [2, 7, 1, 8, 2])]
    inputs = [session.encrypt(p).node.cached for p in plains]
    backend = LocalBackend(session)

    def run_program():
        a, b = (session.wrap(ct) for ct in inputs)
        return backend.run(session.compile((a * b + a).rotate(4) * 3 + b,
                                           name="bench-graph"))

    assert np.array_equal(run_program().decrypt("out"),
                          program_reference(plains, params))
    program_ms, program_rounds = best_ms(run_program, PROGRAM_CEILING_MS)
    program_counts = backend.last_transform_counts
    program_rows = (program_counts["forward_rows"]
                    + program_counts["inverse_rows"])
    assert program_counts["roundtrip_rows"] == 0, program_counts

    # Ring-degree sweep: the large-ring gemm engine at every
    # supported n.
    sweep = [sweep_point(n) for n in SWEEP_NS]

    results = {
        "bench": "fv_throughput",
        "mode": MODE,
        "meta": run_metadata(),
        "params": {
            "name": params.name,
            "n": params.n,
            "k_q": params.k_q,
            "k_p": params.k_p,
            "log2_q": params.log2_q,
        },
        "mult": {
            "ms": round(mult_ms, 3),
            "ops_per_s": round(1e3 / mult_ms, 2),
            "round_ms": [round(r, 3) for r in mult_rounds],
            "ceiling_ms": MULT_CEILING_MS,
        },
        "rotate": {
            "ms": round(rotate_ms, 3),
            "ops_per_s": round(1e3 / rotate_ms, 2),
            "round_ms": [round(r, 3) for r in rotate_rounds],
            "ceiling_ms": ROTATE_CEILING_MS,
        },
        "keygen": {"ms": round(keygen_ms, 2)},
        "encrypt": {"ms": round(encrypt_ms, 3)},
        "decrypt": {"ms": round(decrypt_ms, 3)},
        "program": {
            "ms": round(program_ms, 3),
            "round_ms": [round(r, 3) for r in program_rounds],
            "ceiling_ms": PROGRAM_CEILING_MS,
            "row_transforms": program_rows,
            "roundtrip_rows": program_counts["roundtrip_rows"],
        },
        "sweep": sweep,
        # What the run cost in registry terms: every counter delta
        # (engine transforms, fallbacks) the measurement produced,
        # straight from the repro.obs registry.
        "metrics": {
            series: delta for series, delta in sorted(diff_snapshots(
                metrics_before, current_registry().snapshot()).items())
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    json_name = "BENCH_fv_ops_fast.json" if FAST else "BENCH_fv_ops.json"
    append_trajectory_record(Path(RESULTS_DIR) / json_name, results)

    lines = [
        f"FV HOT-PATH THROUGHPUT — batched engine, absolute wall time "
        f"({MODE} mode, {params.name}: n={params.n}, "
        f"{params.k_q}+{params.k_p} primes)",
        f"{'operation':<22}{'ms':>10}{'ops/s':>10}{'ceiling':>10}",
        f"{'Mult':<22}{mult_ms:>10.2f}{1e3 / mult_ms:>10.1f}"
        f"{MULT_CEILING_MS:>8.1f}ms",
        f"{'Rotate (resident)':<22}{rotate_ms:>10.2f}"
        f"{1e3 / rotate_ms:>10.1f}{ROTATE_CEILING_MS:>8.1f}ms",
        f"{'Keygen':<22}{keygen_ms:>10.1f}",
        f"{'Encrypt':<22}{encrypt_ms:>10.2f}",
        f"{'Decrypt':<22}{decrypt_ms:>10.2f}",
        f"{'HEProgram':<22}{program_ms:>10.2f}{1e3 / program_ms:>10.1f}"
        f"{PROGRAM_CEILING_MS:>8.1f}ms",
        f"row transforms per program run: {program_rows} "
        f"({program_counts['roundtrip_rows']} coefficient round-trip rows)",
        "",
        "RING-DEGREE SWEEP — Mult wall time",
        f"{'n':>7}{'params':>14}{'log2 q':>8}{'Mult':>11}{'Mult/s':>9}"
        f"{'ceiling':>11}",
    ]
    for point in sweep:
        lines.append(
            f"{point['n']:>7}{point['params']:>14}{point['log2_q']:>8}"
            f"{point['mult_ms']:>9.1f}ms{point['mult_ops_per_s']:>9.2f}"
            f"{point['mult_ceiling_ms']:>9.1f}ms"
        )
    lines.append("(min over gc-disabled rounds; ceilings are the "
                 "absolute regression gates)")
    save_result("fv_throughput", "\n".join(lines))

    assert mult_ms <= MULT_CEILING_MS, (
        f"Mult {mult_ms:.2f} ms above the {MULT_CEILING_MS} ms ceiling"
    )
    assert rotate_ms <= ROTATE_CEILING_MS, (
        f"Rotate {rotate_ms:.2f} ms above the {ROTATE_CEILING_MS} ms "
        "ceiling"
    )
    assert program_ms <= PROGRAM_CEILING_MS, (
        f"HEProgram {program_ms:.2f} ms above the {PROGRAM_CEILING_MS} "
        "ms ceiling"
    )
    for point in sweep:
        assert point["mult_ms"] <= point["mult_ceiling_ms"], (
            f"n={point['n']}: sweep Mult {point['mult_ms']:.1f} ms above "
            f"the {point['mult_ceiling_ms']} ms ceiling"
        )


def _cores_points(n: int) -> list[dict]:
    """Mult/s for every (executor, workers) cell at one ring degree.

    The serial baseline and every parallel cell multiply the same
    ciphertexts with the same keys; each parallel cell is bit-checked
    against the serial product before it is timed, so a scheduling bug
    can never hide inside a throughput number.
    """
    params = large_ring(n)
    context = FvContext(params, seed=2019)
    keys = context.keygen()
    evaluator = Evaluator(context)
    m1 = Plaintext.from_list([1, 1, 0, 1], params.n, params.t)
    m2 = Plaintext.from_list([1, 0, 1], params.n, params.t)
    ct1 = context.encrypt(m1, keys.public)
    ct2 = context.encrypt(m2, keys.public)

    def mult():
        return evaluator.multiply(ct1, ct2, keys.relin)

    with use_executor("serial"):
        reference = mult()
        gc.disable()
        try:
            serial_s = min_time(mult, CORES_REPS)
        finally:
            gc.enable()
    points = [{
        "n": n, "executor": "serial", "workers": 1,
        "mult_ms": round(serial_s * 1e3, 3),
        "mult_ops_per_s": round(1.0 / serial_s, 2),
        "speedup_vs_serial": 1.0,
    }]
    registry = current_registry()
    for mode in CORES_EXECUTORS:
        for workers in CORES_WORKERS:
            if workers < 2:
                continue  # one worker is the serial baseline
            with use_executor(mode, workers) as executor:
                if executor.name != mode:
                    # Construction fell back (recorded by the executor
                    # layer); an absent cell beats a mislabelled one.
                    continue
                got = mult()
                assert np.array_equal(reference.c0.residues,
                                      got.c0.residues)
                assert np.array_equal(reference.c1.residues,
                                      got.c1.residues)
                gc.disable()
                try:
                    best = min_time(mult, CORES_REPS)
                finally:
                    gc.enable()
                points.append({
                    "n": n, "executor": mode, "workers": workers,
                    "mult_ms": round(best * 1e3, 3),
                    "mult_ops_per_s": round(1.0 / best, 2),
                    "speedup_vs_serial": round(serial_s / best, 2),
                    "worker_utilisation": round(registry.value(
                        "parallel_worker_utilisation", executor=mode), 3),
                })
    return points


def test_cores_vs_throughput():
    """Workers-vs-Mult/s trajectory for the parallel executors.

    Appends a ``cores`` record to the same BENCH_fv_ops.json chain the
    headline bench feeds, and renders a table alongside it. The 2x
    scaling gate for ThreadPool@4 on the largest ring only arms on
    machines whose affinity mask has >= 4 cores — a single-core runner
    still measures and records the (honest, flat) trajectory, it just
    cannot manufacture parallel speedup to assert on.
    """
    cores = available_cores()
    points = [p for n in CORES_NS for p in _cores_points(n)]
    record = {
        "bench": "fv_cores",
        "mode": MODE,
        "meta": run_metadata(),
        "available_cores": cores,
        "cores": points,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    json_name = "BENCH_fv_ops_fast.json" if FAST else "BENCH_fv_ops.json"
    append_trajectory_record(Path(RESULTS_DIR) / json_name, record)

    lines = [
        f"CORES VS THROUGHPUT — Mult/s by executor and worker count "
        f"({MODE} mode, {cores} core(s) available)",
        f"{'n':>7}{'executor':>12}{'workers':>9}{'Mult (ms)':>11}"
        f"{'Mult/s':>9}{'vs serial':>11}",
    ]
    for p in points:
        lines.append(
            f"{p['n']:>7}{p['executor']:>12}{p['workers']:>9}"
            f"{p['mult_ms']:>11.1f}{p['mult_ops_per_s']:>9.2f}"
            f"{p['speedup_vs_serial']:>10.2f}x"
        )
    save_result("fv_cores", "\n".join(lines))

    if cores >= CORES_FOR_SCALING_GATE:
        n_max = max(CORES_NS)
        (gate,) = [p for p in points
                   if p["n"] == n_max and p["executor"] == "threads"
                   and p["workers"] == 4]
        assert gate["speedup_vs_serial"] >= CORES_SCALING_FLOOR, (
            f"ThreadPool@4 Mult/s at n={n_max} is "
            f"{gate['speedup_vs_serial']:.2f}x serial, below the "
            f"{CORES_SCALING_FLOOR}x scaling floor"
        )
