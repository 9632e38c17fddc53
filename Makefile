# Development entry points.  Everything runs from the source tree via
# PYTHONPATH=src, so no install step is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-stream test-faults test-server check-paper bench bench-smoke bench-backends bench-tcp bench-check docs-check hygiene-check lint run-checks check

# The static gates run first so doc drift, a stale benchmark JSON,
# tracked build artifacts, or a lint invariant violation fail tier-1
# locally, before the (slower) pytest pass starts.  `run-checks` wraps
# docs-check, bench-check, hygiene-check and lint with uniform
# PASS/FAIL reporting; each also remains an individual target.  The
# legacy-engine equivalence baselines are opt-in (`pytest -m legacy`);
# see pytest.ini.
test: run-checks
	$(PYTHON) -m pytest -x -q

# The streaming suite on its own: streaming-vs-batch bit-identity
# across every shard backend (including post-eviction reads and
# exports), the hot-memory bound, and the online regression alarm
# (all of it also rides in `make test`).
test-stream:
	$(PYTHON) -m pytest tests/test_streaming.py -q

# The fault-tolerance suite on its own: kill -9 against real
# shard-server subprocesses, restart/rejoin resync round-trips, and
# the injected-fault matrix (all of it also rides in `make test`).
test-faults:
	$(PYTHON) -m pytest tests/test_fault_tolerance.py -q

# The live-query-server suite on its own: bit-identity at every block
# boundary on every backend, the concurrent hammer, and the
# kill-mid-query bound (all of it also rides in `make test`).
test-server:
	$(PYTHON) -m pytest tests/test_query_server.py -q

# The paper figure/table benches: each bench_*.py under benchmarks/
# asserts one of the paper's figures or tables on simulated telemetry.
# They are not collected by the tier-1 run (pytest's default file
# pattern is test_*.py).
check-paper:
	$(PYTHON) -m pytest -q benchmarks/ -o python_files='bench_*.py'

# Fast sanity pass over the throughput benchmark (small fleet, no JSON).
bench-smoke:
	$(PYTHON) benchmarks/bench_sim_throughput.py --smoke

# Small serial/processes/tcp shard-backend comparison (no JSON).
bench-backends:
	$(PYTHON) benchmarks/bench_sim_throughput.py --backends

# Loopback-TCP shard sweep against a real `repro shard-server`
# subprocess: the distribution seam's cost by shard count (no JSON).
bench-tcp:
	$(PYTHON) benchmarks/bench_sim_throughput.py --tcp

# Full 1000x1000 benchmark; rewrites BENCH_sim_throughput.json.
bench:
	$(PYTHON) benchmarks/bench_sim_throughput.py

# Fails when README/docs drift from the actual CLI flags (both
# directions: stale flags mentioned, new flags undocumented).
docs-check:
	$(PYTHON) tools/docs_check.py

# Fails when BENCH_sim_throughput.json misses a row for any
# CLI-exposed engine or shard backend (lists imported from the code).
bench-check:
	$(PYTHON) tools/bench_check.py

# Fails when build artifacts (__pycache__, *.pyc, .pytest_cache,
# *.egg-info) are tracked by git.
hygiene-check:
	$(PYTHON) tools/hygiene_check.py

# AST-based invariant checks over src/repro: determinism (no hidden
# entropy or wall-clock reads), lock discipline (single-owner seam),
# rpc-surface (string dispatch resolves; query surface stays
# read-only).  See docs/LINTING.md; `--json` gives machine-readable
# findings.
lint:
	$(PYTHON) tools/repro_lint

# All four checkers behind one entry point with uniform PASS/FAIL.
run-checks:
	$(PYTHON) tools/run_checks.py

check: run-checks test
