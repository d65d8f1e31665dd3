# Single source of truth for the commands CI runs, so local dev and
# the workflow can never drift: `make test` is exactly the tier-1
# gate, `make lint` / `make coverage` / `make bench-smoke` are the CI
# jobs, `make bench-nightly` is the scheduled full-mode throughput
# sweep, `make cluster-demo` is the multi-FPGA acceptance run, and
# `make perf` runs the repo benchmark declared in BENCHMARK.json.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint coverage bench-smoke bench-full bench-nightly \
	cluster-demo chaos-smoke perf clean

test:
	$(PYTHON) -m pytest -x -q

lint:
	ruff check src tests benchmarks examples

coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term \
		--cov-fail-under=80

# Fast-mode benches: regenerate the serving + cluster result files the
# CI bench-smoke job uploads as artifacts (REPRO_BENCH_FAST shrinks
# the sweeps; drop it to reproduce the committed full-mode numbers).
bench-smoke:
	REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_serving_runtime.py \
		benchmarks/bench_cluster_scaling.py \
		benchmarks/bench_fv_throughput.py \
		benchmarks/bench_mult_resident.py \
		benchmarks/bench_optimizer.py

bench-full:
	$(PYTHON) -m pytest -q \
		benchmarks/bench_serving_runtime.py \
		benchmarks/bench_cluster_scaling.py \
		benchmarks/bench_fv_throughput.py \
		benchmarks/bench_mult_resident.py \
		benchmarks/bench_optimizer.py

# Nightly CI job: the full-mode FV throughput run (headline block +
# the n = 4096..32768 ring sweep), appending one record with run
# metadata to the BENCH_fv_ops.json trajectory.
bench-nightly:
	$(PYTHON) -m pytest -q benchmarks/bench_fv_throughput.py

cluster-demo:
	$(PYTHON) -m repro cluster --shards 8

# CI test-faults job: the fault-injection suite on fixed FaultPlan
# seeds plus the fast-mode chaos bench (mid-run board kill with the
# zero-loss / <3x-p99 gates).
chaos-smoke:
	$(PYTHON) -m pytest -x -q tests/test_faults.py
	REPRO_BENCH_FAST=1 $(PYTHON) -m pytest -q \
		benchmarks/bench_fault_tolerance.py
	$(PYTHON) -m repro cluster --shards 8 --faults 2019 --replicas 2

# The repo benchmark (perfbench/run.py, one workload per process):
# each workload BENCHMARK.json declares, end to end and then traced,
# whose per-layer counts are checked against perfbench/counts.json.
# Results land in perfbench/out/; `python3 perfbench/report.py`
# renders the traced stage shares.
perf:
	for w in $$($(PYTHON) -c "import json; print(*(w['name'] for w in \
			json.load(open('BENCHMARK.json'))['workloads']))"); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --trace 0 && \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --trace 1 \
			|| exit 1; \
	done

clean:
	rm -rf .pytest_cache .ruff_cache .coverage htmlcov
	find . -name __pycache__ -type d -exec rm -rf {} +
