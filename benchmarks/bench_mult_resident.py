"""Resident-loop Mult: NTT-domain base extension, absolute wall time.

The resident-loop PR closes the last coefficient-domain excursion of
the multiply datapath: operands arrive NTT-resident, the base
extension runs in the evaluation domain (:func:`repro.rns.lift
.lift_hps_ntt` folds the one INTT the HPS quotient estimate needs into
a stacked scaled gemm plan), and the relinearisation fold emits an
NTT-resident product. This bench times that full resident Mult —
resident inputs, ``resident=True`` output — across the ring-degree
support matrix, with three correctness gates before any timing:

* the resident product converts bit-for-bit to the Mult of the same
  ciphertexts given in the coefficient domain;
* it decrypts to the plaintext negacyclic product mod t;
* the transform telemetry records **zero** coefficient round trips for
  the resident multiply (the PR's acceptance criterion).

Protocol and trajectory plumbing mirror ``bench_fv_throughput.py``:
min over gc-disabled rounds, one ``resident`` record appended per run
to ``BENCH_fv_ops.json`` (``_fast`` in smoke mode), and an absolute
ms ceiling per ring degree (see ``CEILING_MS``).
"""

import os
import time
from pathlib import Path

import numpy as np
from bench_fv_throughput import (
    append_trajectory_record,
    best_ms,
    check_mult_decrypts,
    run_metadata,
)
from conftest import RESULTS_DIR, save_result

from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.scheme import FvContext
from repro.nttmath.batch import batched_engine_ok, transform_counts
from repro.params import large_ring

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
MODE = "fast" if FAST else "full"
#: Absolute regression ceilings in ms per ring degree. The gates used
#: to be speedup floors over a re-created pre-batching path; each
#: ceiling is the per-row Mult ms of the last committed full-mode
#: resident record (3f1c01c in BENCH_fv_ops.json: 160.299 / 724.441 /
#: 1525.052 / 3048.16 ms at n = 4096 / 8192 / 16384 / 32768) divided
#: by that floor — 2.5x below n = 16384 and 3.6x from it (fast mode
#: 2.0x) — so at that record it is exactly as strict as the old gate.
CEILING_MS = ({4096: 80.1, 8192: 362.2} if FAST else
              {4096: 64.1, 8192: 289.8, 16384: 423.6, 32768: 846.7})
RESIDENT_REPS = 2 if FAST else 3
ROUNDS = 1 if FAST else 2


def resident_point(n: int) -> dict:
    """Fully resident Mult wall time at one ring degree."""
    params = large_ring(n)
    assert batched_engine_ok(params.q_primes + params.p_primes, n), (
        f"gemm engine must serve the full tensor basis at n={n}"
    )
    context = FvContext(params, seed=2019)
    keys = context.keygen()
    evaluator = Evaluator(context)
    assert evaluator.resident_tensor_ok, (
        f"evaluation-domain tensor path must serve n={n}"
    )
    m1 = Plaintext.from_list([1, 1, 0, 1], params.n, params.t)
    m2 = Plaintext.from_list([1, 0, 1], params.n, params.t)
    ct1 = context.encrypt(m1, keys.public)
    ct2 = context.encrypt(m2, keys.public)
    r1 = context.to_ntt_ct(ct1)
    r2 = context.to_ntt_ct(ct2)

    def resident_mult():
        return evaluator.multiply(r1, r2, keys.relin, resident=True)

    # Correctness gates: bit-exact conversion to the coefficient-input
    # Mult, decrypt equality with the plaintext product, zero
    # coefficient round trips.
    before = transform_counts()
    resident_out = resident_mult()
    delta = {k: v - before[k] for k, v in transform_counts().items()}
    assert delta["roundtrip_rows"] == 0 and delta["roundtrip_calls"] == 0, (
        f"resident Mult at n={n} performed coefficient round trips: "
        f"{delta}"
    )
    assert resident_out.ntt_resident
    converted = context.to_coeff_ct(resident_out)
    coeff_out = evaluator.multiply(ct1, ct2, keys.relin)
    assert np.array_equal(converted.c0.residues, coeff_out.c0.residues)
    assert np.array_equal(converted.c1.residues, coeff_out.c1.residues)
    check_mult_decrypts(context, keys, converted, m1, m2)

    ms, _ = best_ms(resident_mult, CEILING_MS[n], reps=RESIDENT_REPS,
                    min_rounds=1, max_rounds=ROUNDS)
    return {
        "n": n,
        "params": params.name,
        "k_q": params.k_q,
        "k_p": params.k_p,
        "log2_q": params.log2_q,
        "mult_resident_ms": round(ms, 3),
        "mult_resident_ops_per_s": round(1e3 / ms, 2),
        "ceiling_ms": CEILING_MS[n],
        "roundtrip_rows": delta["roundtrip_rows"],
    }


def test_mult_resident():
    start = time.perf_counter()
    points = [resident_point(n) for n in CEILING_MS]
    record = {
        "bench": "mult_resident",
        "mode": MODE,
        "meta": run_metadata(),
        "resident": points,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    json_name = "BENCH_fv_ops_fast.json" if FAST else "BENCH_fv_ops.json"
    append_trajectory_record(Path(RESULTS_DIR) / json_name, record)

    lines = [
        f"RESIDENT MULT — evaluation-domain base extension, absolute "
        f"wall time ({MODE} mode, "
        f"measured in {time.perf_counter() - start:.0f}s)",
        f"{'n':>7}{'params':>14}{'log2 q':>8}{'resident':>11}"
        f"{'Mult/s':>9}{'ceiling':>11}{'roundtrips':>12}",
    ]
    for p in points:
        lines.append(
            f"{p['n']:>7}{p['params']:>14}{p['log2_q']:>8}"
            f"{p['mult_resident_ms']:>9.1f}ms"
            f"{p['mult_resident_ops_per_s']:>9.2f}"
            f"{p['ceiling_ms']:>9.1f}ms"
            f"{p['roundtrip_rows']:>12}"
        )
    lines.append(
        "(resident = NTT-resident operands in, resident product out, "
        "zero coefficient round trips)"
    )
    save_result("mult_resident", "\n".join(lines))

    for p in points:
        assert p["mult_resident_ms"] <= p["ceiling_ms"], (
            f"n={p['n']}: resident Mult {p['mult_resident_ms']:.1f} ms "
            f"above the {p['ceiling_ms']} ms ceiling"
        )
