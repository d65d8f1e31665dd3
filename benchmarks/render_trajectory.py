"""Render the BENCH_fv_ops.json trajectory as a markdown table.

The nightly bench workflow appends one record per run to the
trajectory file (see ``bench_fv_throughput.py``); this script reduces
the chain to a performance-over-time table for the workflow summary::

    python benchmarks/render_trajectory.py \
        benchmarks/results/BENCH_fv_ops.json >> "$GITHUB_STEP_SUMMARY"

One row per record (oldest first): when it was measured, at which
commit, the headline Mult/Rotate wall time (ms and ops/s), and the
per-ring-degree Mult wall time of the sweep. Records written before
the gates became absolute carry a speedup over a since-deleted
per-row baseline instead; those cells render as that speedup. Sweep
columns union over every record so old records (measured before a
ring size was supported) render blank cells instead of breaking the
table. A missing, empty or unparsable file renders a note, not an
empty table.

``fv_cores`` records (the cores-vs-throughput sweep) render as a
second, workers-vs-speedup table: one column per
``executor@workers n=...`` cell, values are Mult/s speedup over the
serial executor measured in the same run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def render(records: list[dict]) -> str:
    cores_records = [r for r in records if "cores" in r]
    optim_records = [r for r in records if "optim" in r]
    fault_records = [r for r in records if "fault" in r]
    resident_records = [r for r in records if "resident" in r]
    records = [r for r in records
               if "cores" not in r and "optim" not in r
               and "fault" not in r and "resident" not in r]
    lines = ["## FV hot-path trajectory", ""]
    if not records and not cores_records:
        lines.append("_No trajectory records yet._")
        return "\n".join(lines) + "\n"
    sweep_ns = sorted({point["n"] for record in records
                       for point in record.get("sweep", [])})
    header = (["date", "sha", "mode", "Mult", "Rotate"]
              + [f"Mult n={n}" for n in sweep_ns])
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for record in records:
        meta = record.get("meta", {})
        by_n = {point["n"]: point for point in record.get("sweep", [])}
        row = [
            str(meta.get("recorded_at", "?")).split("T")[0],
            str(meta.get("git_sha", "?")),
            str(record.get("mode", "?")),
            _cell(record.get("mult", {}), "ms", "speedup"),
            _cell(record.get("rotate", {}), "ms", "speedup"),
        ] + [_cell(by_n[n], "mult_ms", "mult_speedup") if n in by_n
             else "" for n in sweep_ns]
        lines.append("| " + " | ".join(row) + " |")
    if records:
        latest = records[-1]
        program = latest.get("program", {})
        if "ms" in program:
            lines += ["", f"Latest record: benchmark program graph in "
                          f"{program['ms']} ms, {program['row_transforms']} "
                          f"row transforms, {program['roundtrip_rows']} "
                          f"coefficient round-trip rows."]
        elif "transforms_eliminated" in program:
            lines += ["", f"Latest record: NTT-resident executor "
                          f"eliminated {program['transforms_eliminated']} "
                          f"row transforms on the benchmark program "
                          f"graph."]
    if cores_records:
        lines += ["", "### Workers vs speedup (Mult/s over serial)", ""]
        cells = sorted(
            {(p["executor"], p["workers"], p["n"])
             for record in cores_records for p in record["cores"]
             if p["executor"] != "serial"},
            key=lambda c: (c[0], c[1], c[2]),
        )
        header = (["date", "sha", "cores"]
                  + [f"{ex}@{w} n={n}" for ex, w, n in cells])
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for record in cores_records:
            meta = record.get("meta", {})
            by_cell = {(p["executor"], p["workers"], p["n"]):
                       p["speedup_vs_serial"] for p in record["cores"]}
            row = [
                str(meta.get("recorded_at", "?")).split("T")[0],
                str(meta.get("git_sha", "?")),
                str(record.get("available_cores", "?")),
            ] + [_speedup(by_cell[c]) if c in by_cell else ""
                 for c in cells]
            lines.append("| " + " | ".join(row) + " |")
    if optim_records:
        lines += ["", "### Optimiser pass stack "
                      "(keyswitches saved, makespan speedup)", ""]
        programs = sorted({p["program"] for record in optim_records
                           for p in record["optim"]})
        header = (["date", "sha"]
                  + [f"{name} ks" for name in programs]
                  + [f"{name} makespan" for name in programs])
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for record in optim_records:
            meta = record.get("meta", {})
            by_program = {p["program"]: p for p in record["optim"]}
            row = [
                str(meta.get("recorded_at", "?")).split("T")[0],
                str(meta.get("git_sha", "?")),
            ]
            for name in programs:
                point = by_program.get(name)
                row.append(_percent(point["keyswitch_reduction"])
                           if point else "")
            for name in programs:
                point = by_program.get(name)
                row.append(_speedup(point["makespan_speedup"])
                           if point else "")
            lines.append("| " + " | ".join(row) + " |")
    if resident_records:
        lines += ["", "### Resident Mult (evaluation-domain base "
                      "extension, zero round trips)", ""]
        resident_ns = sorted({p["n"] for record in resident_records
                              for p in record["resident"]})
        header = (["date", "sha"]
                  + [f"Mult n={n}" for n in resident_ns])
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for record in resident_records:
            meta = record.get("meta", {})
            by_n = {p["n"]: p for p in record["resident"]}
            row = [
                str(meta.get("recorded_at", "?")).split("T")[0],
                str(meta.get("git_sha", "?")),
            ] + [_cell(by_n[n], "mult_resident_ms", "mult_speedup")
                 if n in by_n else "" for n in resident_ns]
            lines.append("| " + " | ".join(row) + " |")
    if fault_records:
        lines += ["", "### Fault tolerance (mid-run board kill)", ""]
        header = ["date", "sha", "fleet", "lost", "spilled", "retried",
                  "failovers", "availability", "p99 inflation"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for record in fault_records:
            meta = record.get("meta", {})
            fault = record["fault"]
            row = [
                str(meta.get("recorded_at", "?")).split("T")[0],
                str(meta.get("git_sha", "?")),
                f"{fault.get('shards', '?')} boards / "
                f"R={fault.get('replicas', '?')}",
                str(fault.get("jobs_lost", "?")),
                str(fault.get("jobs_spilled", "?")),
                str(fault.get("jobs_retried", "?")),
                str(fault.get("failovers", "?")),
                _percent(fault.get("availability")),
                _speedup(fault.get("p99_inflation")),
            ]
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _cell(point: dict, ms_key: str, speedup_key: str) -> str:
    """Absolute wall time and ops/s; the recorded speedup for records
    that predate the absolute gates."""
    if speedup_key in point:
        return _speedup(point[speedup_key])
    ms = point.get(ms_key)
    return f"{ms:.1f} ms ({1e3 / ms:.1f}/s)" if ms else ""


def _percent(value) -> str:
    return f"{value:.0%}" if isinstance(value, (int, float)) else ""


def _speedup(value) -> str:
    return f"{value:.2f}x" if isinstance(value, (int, float)) else ""


def main(argv: list[str]) -> int:
    path = Path(argv[1] if len(argv) > 1
                else "benchmarks/results/BENCH_fv_ops.json")
    # The nightly summary must render something useful on every run:
    # a missing, empty or unparsable trajectory is a note in the
    # summary (exit 0), not a red workflow step.
    if not path.is_file():
        print("## FV hot-path trajectory\n\n"
              f"_No trajectory file at `{path}` yet — run the bench "
              "to record one._")
        return 0
    text = path.read_text().strip()
    if not text:
        print("## FV hot-path trajectory\n\n"
              f"_Trajectory file `{path}` is empty — run the bench "
              "to record the first entry._")
        return 0
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        print("## FV hot-path trajectory\n\n"
              f"_Trajectory file `{path}` is not valid JSON "
              f"({exc}) — fix or regenerate it._")
        return 0
    records = loaded if isinstance(loaded, list) else [loaded]
    print(render(records), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
