"""Self-tests of the benchmark at a tiny ring (a few requests each).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
for path in (ROOT / "src", PERFBENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import T, WORKLOADS, make_workload  # noqa: E402

from repro.params import mini  # noqa: E402

SECONDS = 0.2


def tiny(name, seed=3):
    return make_workload(name, seed, mini(t=T))


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    """One untraced and one traced run per workload at n = 256."""
    out = {}
    for name in WORKLOADS:
        untraced = bench.end_to_end(name, 3, SECONDS, setup_samples=1,
                                    params=mini(t=T))
        traced, recorder = bench.per_layer(name, 3, SECONDS,
                                           params=mini(t=T))
        out[name] = (untraced, traced, recorder)
    return out


def test_workload_names_match_the_spec():
    assert {w["name"] for w in spec()["workloads"]} <= set(WORKLOADS)


def test_every_metric_is_reported_with_its_unit(results):
    end_to_end = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert end_to_end == bench.END_TO_END_UNITS
    assert per_layer == bench.PER_LAYER_UNITS
    for untraced, traced, _ in results.values():
        for result, units in ((untraced, end_to_end), (traced, per_layer)):
            assert result["correct"] and result["failed"] == 0
            assert {k: m["unit"] for k, m in result["metrics"].items()} \
                == units
            table = bench.render(result)
            for key, unit in units.items():
                assert any(line.startswith(key) and line.endswith(unit)
                           for line in table.splitlines()), key


def test_exact_counts_and_reconciliation(results):
    for name, (_, traced, _) in results.items():
        metrics = {k: m["value"] for k, m in traced["metrics"].items()}
        assert metrics["fv.decrypt_calls"] == 2
        assert metrics["ntt.fallbacks"] == 0
        assert metrics["trace.unattributed_share"] < 0.1, name
    rot = results["rot_matvec_4k"][1]["metrics"]
    assert rot["optim.keyswitches"]["value"] == 7
    assert rot["fv.galois_keygen_s"]["value"] > 0
    assert results["mult_tree_8k"][1]["metrics"]["rns.lift_ms"]["value"] > 0


def test_seed_changes_inputs_not_metric_set():
    first, second = tiny("plain_affine_4k", 1), tiny("plain_affine_4k", 2)
    assert not np.array_equal(first.random_slots(), second.random_slots())
    assert np.array_equal(tiny("plain_affine_4k", 1).random_slots(),
                          tiny("plain_affine_4k", 1).random_slots())
    keys = [
        set(bench.end_to_end("plain_affine_4k", seed, SECONDS,
                             setup_samples=1, params=mini(t=T))["metrics"])
        for seed in (1, 2)
    ]
    assert keys[0] == keys[1] == set(bench.END_TO_END_UNITS)


def test_wrong_reference_fires_the_gate():
    workload, _ = bench.setup("plain_affine_4k", 5, mini(t=T))
    good = workload.reference
    workload.reference = lambda values: (good(values) + 1) % T
    logged = []
    phase = bench.measure(workload, SECONDS, log=logged.append)
    assert phase.failed == phase.attempted >= 1
    assert any("mismatch" in line for line in logged)


def test_rotation_reference_is_not_np_roll():
    workload, _ = bench.setup("rot_matvec_4k", 5, mini(t=T))
    values = workload.inputs()
    rolled = sum(np.roll(values[0], -k) * d
                 for k, d in enumerate(workload.diagonals)) % T
    assert not np.array_equal(rolled, workload.reference(values))


def test_wrappers_are_removed_after_the_traced_run():
    before = tracing.originals()
    assert not any(hasattr(fn, "__wrapped__") for fn in before.values())
    _, recorder = bench.per_layer("plain_affine_4k", 4, SECONDS,
                                  params=mini(t=T))
    assert recorder.request_spans()
    assert tracing.originals() == before
    # An untraced run afterwards records nothing: it runs unwrapped code.
    spans = len(recorder.spans)
    bench.end_to_end("plain_affine_4k", 4, SECONDS, setup_samples=1,
                     params=mini(t=T))
    assert len(recorder.spans) == spans


def test_tracer_is_removed_when_the_block_raises():
    before = tracing.originals()
    with pytest.raises(RuntimeError), tracing.traced(tracing.SpanRecorder()):
        assert tracing.originals() != before
        raise RuntimeError("boom")
    assert tracing.originals() == before


def test_self_time_excludes_children():
    recorder = tracing.SpanRecorder()
    recorder.request = 0
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    spans = recorder.spans
    assert spans[inner].parent == outer
    assert spans[outer].self_time == pytest.approx(
        spans[outer].duration - spans[inner].duration)


def test_missing_source_exits_without_a_result(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "plain_affine_4k", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
