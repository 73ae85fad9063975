# Developer entry points for the MemPool reproduction.
#
#   make test       the tier-1 suite (tests/, benchmarks/ and bench/)
#   make ci         the full CI gate: tests + docs-lint
#   make coverage   tier-1 suite under pytest-cov with an enforced threshold
#   make bench      benchmark harness (regenerates every figure/table)
#   make bench-stack  the repository benchmark (bench/run.py, see bench/README.md)
#   make bench-compare A=a/results.json B=b/results.json  A/B verdict per metric
#   make bench-ab PARENT=<rev> [WORKLOAD=a,b] [PAIRS=10] [PROFILE=N]  interleaved A/B of the working tree
#   make service-smoke  HTTP sweep service end to end: submit/stream/fetch vs direct run
#   make fuzz       bounded differential fuzz of the two engines
#   make validate   statistical golden-band validation (repro.validation)
#   make validate-update  re-measure and re-commit the golden bands
#   make reach      reachability census: src/repro lines no command calls (docs/reach.md)
#   make lint       ruff (pyproject.toml config) when available, else docs-lint
#   make docs-lint  docstring lint over the public API
#   make figures    regenerate all paper figures through the sweep engine
#   make clean-cache  drop the on-disk experiment result cache

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
WORKERS ?= 1
# Sampled configurations per differential-fuzz property (`make fuzz`):
# 25 keeps the smoke run to seconds; CI's nightly job raises it to dig.
FUZZ_BUDGET ?= 25
# Enforced line-coverage floor of `make coverage` (the CI coverage job):
# the tier-1 suite measured ~95% line coverage of src/repro when the gate
# was introduced; the floor sits a few points below so platform- and
# version-dependent branches don't flake the job, while a real coverage
# slide still fails it.  Raise it as coverage grows, never lower it to
# make a failing build pass.
COV_MIN ?= 92

.PHONY: test ci coverage bench bench-stack bench-compare bench-ab \
	service-smoke fuzz validate validate-update reach lint docs-lint figures clean-cache

test:
	$(PYTHON) -m pytest -x -q

# One entry point shared by .github/workflows/ci.yml and local runs: the
# tier-1 suite and the docstring lint, every step's failure fails the target.
ci:
	$(MAKE) test
	$(MAKE) docs-lint

# Enforced coverage run (the CI coverage job): fails below COV_MIN and
# always leaves coverage.xml for the artifact upload.  Requires
# pytest-cov; the guard gives offline machines an actionable error
# instead of pytest's unknown-option stack trace.
coverage:
	@$(PYTHON) -c "import pytest_cov" >/dev/null 2>&1 || { \
		echo "make coverage requires pytest-cov (pip install pytest-cov)"; \
		exit 1; \
	}
	$(PYTHON) -m pytest -q tests --cov=repro --cov-report=term \
		--cov-report=xml:coverage.xml --cov-fail-under=$(COV_MIN)

bench:
	$(PYTHON) -m pytest -q benchmarks

# The benchmark of record (BENCHMARK.json): six workloads, end-to-end and
# per-layer metrics, appended to bench/out/results.json.  bench/ sets its
# own PYTHONPATH, so these run the same way the driver runs them.
bench-stack:
	python3 bench/run.py

# A/B verdict of two result files (bench/README.md, "A/B procedure").
bench-compare:
	python3 bench/compare.py $(A) $(B)

# The whole A/B procedure for a claimed gain: PARENT in a shared git clone
# under bench/out/ab/, PAIRS interleaved `--trace 0` pairs (one seed per
# pair, who-goes-first alternated), then bench/compare.py on the two sets;
# PROFILE=N adds N traced passes per side and the per-layer before/after table.
PAIRS ?= 10
bench-ab:
	python3 tools/bench_ab.py $(PARENT) --pairs $(PAIRS) \
		$(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(PROFILE),--profile $(PROFILE))

# Sweep-service smoke: the job-layer unit tests, then the end-to-end HTTP
# path — boot `serve` on an ephemeral port, submit the fig5 smoke sweep,
# stream its NDJSON events to completion, fetch each /results/{key} pickle
# the moment its point event arrives and byte-compare it against a direct
# Executor run, prove an identical resubmission is served from the cache
# with zero recomputes, then cancel a second sweep mid-run and prove its
# resubmission reuses the points the cancelled job had reported; last,
# boot a server from a copy of src/, edit the copy and expect a 409.
service-smoke:
	$(PYTHON) -m pytest -x -q tests/test_service.py
	$(PYTHON) tools/service_smoke.py

# Property-based differential fuzzing: FUZZ_BUDGET configurations sampled
# from the registries' whole space, each run on both engines and
# compared flit for flit.  Failures shrink and print a one-line
# `python -m repro.experiments validate --replay '<spec>'` reproducer.
fuzz:
	FUZZ_BUDGET=$(FUZZ_BUDGET) $(PYTHON) -m pytest -x -q \
		tests/test_fuzz_differential.py

# Severity-banded statistical validation against the committed goldens
# (benchmarks/GOLDEN_validation.json); exits 1 on a reject-band deviation
# and writes benchmarks/VALIDATION_report.json for the CI artifact.
validate:
	$(PYTHON) -m repro.experiments validate

validate-update:
	$(PYTHON) -m repro.experiments validate --update

# Reachability census (tools/reach.py): every user-visible entry point
# (the nine experiments, --full, legacy, a pool and a warm run, clean,
# trace, validate, serve, fuzz) in one process under the stdlib
# profiler; prints per module of src/repro its lines and the lines of
# functions nothing called.  A few minutes; docs/reach.md holds the
# committed table.
reach:
	$(PYTHON) tools/reach.py

# Full ruff lint (E/F + the D1 docstring rules, configured in
# pyproject.toml); falls back to the docstring subset on machines
# without ruff.
lint:
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed; running docs-lint fallback"; \
		$(MAKE) docs-lint; \
	fi

# Prefer ruff's pydocstyle (D) rules or pydocstyle itself when available;
# fall back to the bundled AST checker (same missing-docstring subset) on
# offline machines that have neither.  Either way the generated catalogue
# tables of README.md / docs/architecture.md are checked against the live
# catalogue (`tools/docs_lint.py --tables --write` regenerates them).
DOCS_LINT_DIRS := src/repro/core src/repro/experiments src/repro/evaluation src/repro/traffic \
	src/repro/energy src/repro/physical \
	src/repro/kernels src/repro/engine src/repro/workloads src/repro/topologies \
	src/repro/interconnect src/repro/validation src/repro/service src/repro/utils tools \
	src/repro/catalogue.py src/repro/tracefile.py

docs-lint:
	@$(PYTHON) tools/docs_lint.py --tables
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check --select D100,D101,D102,D103,D104 $(DOCS_LINT_DIRS); \
	elif $(PYTHON) -c "import pydocstyle" >/dev/null 2>&1; then \
		$(PYTHON) -m pydocstyle --select D100,D101,D102,D103,D104 $(DOCS_LINT_DIRS); \
	else \
		$(PYTHON) tools/docs_lint.py $(DOCS_LINT_DIRS); \
	fi

figures:
	$(PYTHON) -m repro.experiments run --workers $(WORKERS)

clean-cache:
	$(PYTHON) -m repro.experiments clean
