"""Benchmark entry point: one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mult_tree_8k --seed 1 --seconds 30


``--trace 0`` prints the end-to-end metrics of an untraced closed-loop
run; ``--trace 1`` prints the per-layer metrics of a traced run. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a readable table and the run metadata. Full results and the
span dump land in ``perfbench/out/``. The benchmark runs the default
execution config: ``REPRO_EXECUTOR``/``REPRO_WORKERS`` are cleared and
numpy's BLAS threading is left alone.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.

``python3 perfbench/report.py`` renders the traced runs' stage shares
beside the simulated FPGA breakdown; ``python3 -m pytest
perfbench/tests`` runs the benchmark's self-tests at a tiny ring.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for "
                             "the setup_s samples taken in fresh "
                             "processes)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    for var in ("REPRO_EXECUTOR", "REPRO_WORKERS"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(SRC), str(HERE)]

    import bench
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    if args.setup_only:
        _, seconds = bench.setup(args.workload, args.seed,
                                 log=lambda msg: print(msg, file=sys.stderr))
        print(json.dumps({"setup_s": seconds}))
        return 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, recorder = bench.per_layer(args.workload, args.seed,
                                           args.seconds)
        bench.compare_counts(args.workload, result["metrics"])
    else:
        result, recorder = bench.end_to_end(args.workload, args.seed,
                                            args.seconds), None
    bench.write_out(stem, result, recorder)
    print(bench.render(result))
    print(json.dumps({"metadata": result["details"]["metadata"]}))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
