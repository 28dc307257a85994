# Convenience targets for the repro repository.

PYTHON ?= python

.PHONY: install test test-all bench bench-full bench-profiler bench-cache bench-ablate bench-quant bench-sweep-scale ablate-smoke quant-smoke monitor-smoke sweep-scale-smoke suite examples check check-concurrency clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:            ## fast test suite (excludes slow-marked tests)
	$(PYTHON) -m pytest tests/ -q -m "not slow"

test-all:        ## everything, including slow deep-model tests
	$(PYTHON) -m pytest tests/ -q

bench:           ## default benchmark subset (one network per family)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s

bench-full:      ## all eight paper networks (long)
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s

bench-profiler:  ## profiler scaling: serial vs --jobs threads, BLAS pinned to 1 thread (writes BENCH_profiler.json)
	OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
		PYTHONPATH=src $(PYTHON) benchmarks/bench_profiler_scaling.py

bench-cache:     ## persistent cache: cold vs warm vs sweep (writes BENCH_cache.json)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_cache_sweep.py

bench-ablate:    ## ablation campaign: cells, cache sharing, importance (writes BENCH_ablate.json)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ablate.py

bench-quant:     ## integer runtime vs fp64 engine: wall-clock, traffic, bit-identity (writes BENCH_quant.json)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_quant.py

bench-sweep-scale:  ## distributed sweep scaling: 1/2/4 workers, cold+warm store (writes BENCH_sweep_scale.json)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sweep_scale.py

quant-smoke:     ## tiny lenet run on the integer runtime; fails if measured drop exceeds budget (CI gate)
	PYTHONPATH=src $(PYTHON) -m repro run-quantized --model lenet \
		--train-count 96 --test-count 48 --profile-images 8 \
		--profile-points 4 --drop 0.02
	PYTHONPATH=src $(PYTHON) benchmarks/bench_quant.py --smoke \
		--output bench-quant-smoke.json

ablate-smoke:    ## tiny lenet campaign with one injected chaos fault, then a resume on its cache (CI gate)
	rm -rf ablate-smoke-cache
	PYTHONPATH=src $(PYTHON) -m repro ablate --model lenet --smoke \
		--components xi,cache,scheme --cache-dir ablate-smoke-cache \
		--chaos-cell component/cache:off/lenet \
		--output ablate-smoke.json
	@PYTHONPATH=src $(PYTHON) -c "import json; r = json.load(open('ablate-smoke.json')); \
	assert r['schema_version'] == 1, r.get('schema_version'); \
	rows = r['rows']; assert len(rows) == 4, len(rows); \
	failed = [x for x in rows if x['status'] == 'failed']; \
	assert [x['cell_id'] for x in failed] == ['component/cache:off/lenet'], failed; \
	assert failed[0]['failure']['error_class'] == 'SimulatedCrash', failed[0]; \
	assert r['importance'], 'importance ranking missing'; \
	assert r['manifest'].get('config_hash'), 'manifest missing'; \
	print('ablate smoke OK: %d cells, 1 injected failure isolated' % len(rows))"
	PYTHONPATH=src $(PYTHON) -m repro ablate --model lenet --smoke \
		--components xi,cache,scheme --cache-dir ablate-smoke-cache \
		--output ablate-smoke-resume.json
	@PYTHONPATH=src $(PYTHON) -c "import json; \
	first = {x['cell_id']: x for x in json.load(open('ablate-smoke.json'))['rows']}; \
	r = json.load(open('ablate-smoke-resume.json')); rows = r['rows']; \
	assert len(rows) == len(first) and all(x['status'] == 'ok' for x in rows), rows; \
	resumed = [x['cell_id'] for x in rows if x['resumed']]; \
	assert resumed == ['component/baseline/lenet', 'component/xi:equal/lenet', 'component/scheme:scheme2/lenet'], resumed; \
	assert r['executed_cell_ids'] == ['component/cache:off/lenet'], r['executed_cell_ids']; \
	same = lambda x: {k: v for k, v in x.items() if k not in ('elapsed_seconds', 'cache_counters', 'resumed')}; \
	moved = [x['cell_id'] for x in rows if first[x['cell_id']]['status'] == 'ok' and same(x) != same(first[x['cell_id']])]; \
	assert not moved, moved; \
	print('ablate resume OK: %d restored from the cache, %d re-executed, rows unchanged' % (len(resumed), len(rows) - len(resumed)))"

monitor-smoke:   ## tiny sweep with --events-dir, then parse + self-scrape the bus (CI gate)
	rm -rf monitor-smoke-events
	PYTHONPATH=src $(PYTHON) -m repro sweep --model lenet \
		--train-count 96 --test-count 48 --profile-images 8 \
		--profile-points 4 --drops 0.05 --objectives input \
		--events-dir monitor-smoke-events
	PYTHONPATH=src $(PYTHON) -m repro monitor monitor-smoke-events --once \
		| tee monitor-smoke.txt
	@grep -q "finished" monitor-smoke.txt
	PYTHONPATH=src $(PYTHON) -m repro monitor monitor-smoke-events \
		--metrics-port 0 --self-scrape | tee monitor-scrape.txt
	@grep -q "repro_monitor_run_finished 1" monitor-scrape.txt
	@echo "monitor smoke OK: status parsed + /metrics scraped"

sweep-scale-smoke:  ## 2-worker distributed sweep; rows asserted bit-identical to serial (CI gate)
	rm -rf sweep-scale-smoke-run
	PYTHONPATH=src $(PYTHON) -m repro sweep --model lenet \
		--train-count 96 --test-count 48 --profile-images 8 \
		--profile-points 4 --drops 0.05 --objectives input \
		--workers 2 --run-dir sweep-scale-smoke-run
	@test -f sweep-scale-smoke-run/manifest.json || \
		{ echo "run manifest missing"; exit 1; }
	@test -f sweep-scale-smoke-run/cells/lenet__drop0.05__input.json || \
		{ echo "published cell missing"; exit 1; }
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sweep_scale.py --smoke \
		--output sweep-scale-smoke.json
	@echo "sweep-scale smoke OK: 2-worker rows identical to serial"

suite:           ## regenerate every table/figure as JSON artifacts
	$(PYTHON) -m repro suite --output results/

examples:        ## run every example script
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

check:           ## static analysis: self-lint (always) + ruff/mypy (if installed)
	PYTHONPATH=src $(PYTHON) -m repro.check --self
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (CI runs it)"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro/bench src/repro/cache src/repro/check src/repro/engine src/repro/experiments src/repro/nn src/repro/quant/runtime src/repro/robustness src/repro/telemetry; \
	else \
		echo "mypy not installed; skipping (CI runs it)"; \
	fi

check-concurrency:  ## concurrency + determinism analyzers against the committed baseline
	PYTHONPATH=src $(PYTHON) -m repro.check --self --concurrency --determinism \
		--baseline check-baseline.json

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results results
	rm -rf monitor-smoke-events monitor-smoke.txt monitor-scrape.txt
	rm -rf ablate-smoke.json ablate-smoke-resume.json ablate-smoke-cache
	rm -rf sweep-scale-smoke-run sweep-scale-smoke.json
	find . -name __pycache__ -type d -exec rm -rf {} +
