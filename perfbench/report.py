"""Render traced per-layer shares beside the simulated FPGA breakdown.

Usage, after traced runs (``--trace 1``) have written
``perfbench/out/*-trace1.json``::

    python3 perfbench/report.py

For each workload it prints the measured share of request wall time
per Fig. 2 stage group, next to the cycle model's share of one Mult on
the paper's coprocessor (Table II call counts x per-instruction
cycles) and the DSP share of the matching subsystem in the simulated
Table IV breakdown (``benchmarks/results/table4_breakdown.txt``). The
model columns are simulated and not validated against this host. The
script only reads; it changes no file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TABLE4 = ROOT / "benchmarks" / "results" / "table4_breakdown.txt"

#: Stage group -> (per-layer metrics, cycle-model opcodes, Table IV
#: subsystem). Host-only stages have no FPGA counterpart.
GROUPS = (
    ("NTT engine", ("ntt.forward_ms", "ntt.inverse_ms",
                    "ntt.inverse_scaled_ms", "ntt.forward_broadcast_ms",
                    "ntt.pointwise_ms"),
     ("NTT", "INTT", "REARRANGE"), "rpaus"),
    ("lift", ("rns.lift_ms",), ("LIFT",), "lift_cores"),
    ("scale", ("rns.scale_ms",), ("SCALE",), "scale_cores"),
    ("tensor + keyswitch fold", ("fv.tensor_ms", "fv.relin_ms",
                                 "fv.rotate_ms", "rns.digits_ms"),
     ("CMUL", "CADD", "DIGIT", "LOAD_RLK"), None),
    ("plain / add", ("fv.plain_ms", "fv.add_ms"), (), None),
    ("ingress / egress", ("fv.encrypt_ms", "fv.decrypt_ms",
                          "rns.reconstruct_ms", "fv.encode_ms",
                          "fv.decode_ms", "fv.convert_ms"), (), None),
    ("api (compile, run)", ("api.compile_ms", "api.run_ms"), (), None),
)


def latest_traced(out_dir: Path) -> dict[str, dict]:
    """The newest traced result per workload."""
    found: dict[str, tuple[float, dict]] = {}
    for path in out_dir.glob("*-trace1.json"):
        workload = path.name.split("-seed")[0]
        stamp = path.stat().st_mtime
        if workload not in found or stamp > found[workload][0]:
            found[workload] = (stamp, json.loads(path.read_text()))
    return {name: result for name, (_, result) in sorted(found.items())}


def model_mult_shares() -> dict[str, float]:
    """Cycle-model share of one Mult per opcode (paper parameters)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.hw.compiler import expected_table2_calls
    from repro.params import hpca19
    from repro.system.server import CostModel

    cost = CostModel(hpca19())
    cycles = cost.instruction_cycle_model()
    calls = expected_table2_calls(cost.params, cost.config)
    spent = {op.name: cycles.get(op, 0) * count
             for op, count in calls.items()}
    total = sum(spent.values())
    return {name: value / total for name, value in spent.items()}


def table4_dsp_shares(path: Path = TABLE4) -> dict[str, float]:
    """DSP share per subsystem from the simulated Table IV breakdown."""
    dsp: dict[str, int] = {}
    for line in path.read_text().splitlines()[2:]:
        fields = line.split()
        if len(fields) == 5:
            dsp[fields[0]] = int(fields[4].replace(",", ""))
    total = sum(dsp.values())
    return {name: value / total for name, value in dsp.items()}


def render(results: dict[str, dict], model: dict[str, float],
           dsp: dict[str, float]) -> str:
    names = list(results)
    head = f"{'stage group':<26}" + "".join(f"{n:>18}" for n in names)
    head += f"{'model Mult':>12}{'Table IV DSP':>14}"
    lines = [
        "measured share of traced request wall time (ms per request)",
        head,
    ]
    for label, metrics, opcodes, subsystem in GROUPS:
        row = f"{label:<26}"
        for name in names:
            result = results[name]
            values = result["metrics"]
            ms = sum(values[m]["value"] for m in metrics)
            share = ms / result["details"]["traced_ms_mean"]
            row += f"{f'{100 * share:5.1f}% ({ms:8.2f})':>18}"
        simulated = sum(model.get(op, 0.0) for op in opcodes)
        row += f"{f'{100 * simulated:.1f}%' if opcodes else '-':>12}"
        row += f"{f'{100 * dsp[subsystem]:.1f}%' if subsystem else '-':>14}"
        lines.append(row)
    row = f"{'unattributed':<26}"
    for name in names:
        share = results[name]["metrics"]["trace.unattributed_share"]["value"]
        row += f"{f'{100 * share:5.1f}%':>18}"
    lines.append(row)
    lines.append("")
    lines.append(f"{'per request':<26}" + "".join(f"{n:>18}" for n in names))
    for label, key in (("measured traced mean ms", None),
                       ("model.compute_ms", "model.compute_ms"),
                       ("model.critical_path_ms", "model.critical_path_ms")):
        row = f"{label:<26}"
        for name in names:
            result = results[name]
            value = (result["details"]["traced_ms_mean"] if key is None
                     else result["metrics"][key]["value"])
            row += f"{value:>18.3f}"
        lines.append(row)
    lines.append("model columns are simulated FPGA figures (cycle model, "
                 "Table IV resources), not validated on this host")
    return "\n".join(lines)


def main() -> int:
    results = latest_traced(HERE / "out")
    if not results:
        print("no traced results under perfbench/out; run "
              "perfbench/run.py --trace 1 first", file=sys.stderr)
        return 1
    print(render(results, model_mult_shares(), table4_dsp_shares()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
