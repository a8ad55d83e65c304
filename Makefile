# Spec-QP reproduction — common entry points.
#
#   make test    tier-1 verification (unit + property + integration + benchmarks)
#   make bench-e2e  the BENCHMARK.json end-to-end benchmark, all four workloads
#   make bench-compare A=a.json B=b.json  verdict per workload and metric, B against A
#   make bench-pairs PARENT=<checkout> W=<workload> N=10 SEED=42 [CLAIM=qps]
#                alternating parent/change runs of one workload: medians,
#                quartiles, wins/ties, the claim rule and the --compare verdict
#   make cov     tests with line coverage + the CI floor (needs pytest-cov)
#   make docs    docs link + snippet import check, run every runnable doc surface
#   make workload  demo the batch-serving layer (one warm block batch)
#   make scenarios  build + validate every scenario pack, run the slow matrix
#   make loc     src/ line count, measured the way the ROADMAP standing rule does

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

#: Coverage floor enforced by `make cov` and the CI coverage job.
COV_FAIL_UNDER ?= 80

.PHONY: test bench-e2e bench-compare bench-pairs cov docs workload scenarios loc

test:
	$(PYTHON) -m pytest -x -q

bench-e2e:
	python3 bench/run.py --seed 42 --repeats 3 --out bench/out/result.json

bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=parent.json B=change.json"; exit 2; }
	python3 bench/run.py --compare $(A) $(B)

W ?= xkg_relax_resident
N ?= 10
SEED ?= 42

bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<checkout of the parent commit> [W=$(W)] [N=$(N)] [SEED=$(SEED)] [CLAIM=qps]"; exit 2; }
	python3 scripts/bench_pairs.py --parent $(PARENT) --workload $(W) --pairs $(N) --seed $(SEED) $(if $(CLAIM),--claim $(CLAIM))

cov:
	$(PYTHON) -m pytest tests -q --cov=repro \
		--cov-report=term-missing:skip-covered \
		--cov-fail-under=$(COV_FAIL_UNDER)

docs:
	$(PYTHON) scripts/check_docs_links.py
	$(PYTHON) -c "import repro; assert repro.__doc__ and 'Quickstart' in repro.__doc__"
	@for script in examples/*.py; do \
		echo "running $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "examples OK"

workload:
	$(PYTHON) -m repro.experiments workload --scale small --executor block

scenarios:
	$(PYTHON) scripts/validate_scenarios.py
	$(PYTHON) -m pytest tests -q -m slow_scenario

loc:
	@find src -name '*.py' | xargs wc -l | tail -1
