# Convenience targets; everything is plain dune underneath.

.PHONY: all build test test-stress lint lint-baseline bench bench-quick bench-smoke ledger ledger-ab chaos serve top flame examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Seed sweep: the property harness under 20 pinned qcheck seeds, plus
# 20 repeats of the cross-domain equivalence suites (portfolio racing
# and the engines' determinism checks), which stress real domain
# scheduling each repeat.  See test/README.md for the seed convention.
test-stress: build
	@for s in $$(seq 1 20); do \
	  printf 'prop harness, QCHECK_SEED=%s: ' $$s; \
	  QCHECK_SEED=$$s dune exec test/prop/prop_main.exe >/dev/null 2>&1 \
	    && echo ok || { echo FAILED; exit 1; }; \
	done
	@for s in $$(seq 1 20); do \
	  printf 'equivalence suites, repeat %s: ' $$s; \
	  dune exec test/test_main.exe -- test portfolio >/dev/null 2>&1 \
	    && echo ok || { echo FAILED; exit 1; }; \
	done

# Static analysis gate: sa_lint over lib/ bin/ bench/ test/ — the
# syntactic rules plus the typed effect/race pass over the build
# tree's .cmt files — with the incremental cache and the checked-in
# baseline ratchet.  Any finding not in lint_baseline.json fails the
# build.  Also runs as part of `dune runtest` via the @lint alias.
lint:
	dune build @lint

# Accept the current findings as the new ratchet floor.  The baseline
# is meant to shrink over time: regenerate it after fixing findings,
# never to smuggle new ones past review.
lint-baseline: build
	dune exec bin/sa_lint.exe -- --typed --write-baseline lint_baseline.json \
	  lib bin bench test

# Full reproduction run: every table of the paper, the extensions and
# the ablations, printed to bench_output.txt and summarised in
# BENCH_results.json.  Speed claims come from `make ledger`, not here.
bench:
	dune exec bench/main.exe -- --json BENCH_results.json 2>/dev/null | tee bench_output.txt

# ~10x faster, noisier tables for a smoke check.
bench-quick:
	dune exec bench/main.exe -- --scale 0.1 2>/dev/null

# Miniature tables + JSON summary, validated; fails on a missing or
# malformed summary.  The summary goes under _build/, so the committed
# full-scale BENCH_results.json is left alone.  (dune runtest runs the
# same check via the bench-smoke alias.)
bench-smoke:
	dune exec bench/main.exe -- --scale 0.05 --json _build/bench_smoke.json > /dev/null
	dune exec bench/check_json.exe -- _build/bench_smoke.json

# Ledger runs of one workload (W=paper-cli, linarr-n600 or race-tsp1000)
# for the development seeds 1-10 and the held-out seed 1985, 30 s
# untraced each; the run documents go one per line into LEDGER_OUT.
# Run it on two checkouts, then compare the two files:
#   dune exec bench/ledger/ledger.exe -- compare A.jsonl -- B.jsonl
W ?= paper-cli
LEDGER_OUT ?= ledger-$(W).jsonl
ledger:
	@rm -f $(LEDGER_OUT)
	@for s in 1 2 3 4 5 6 7 8 9 10 1985; do \
	  bash bench/ledger/run.sh --workload $(W) --seed $$s --seconds 30 --trace 0 \
	    --json $(LEDGER_OUT).run || exit 1; \
	  cat $(LEDGER_OUT).run >> $(LEDGER_OUT); \
	done
	@rm -f $(LEDGER_OUT).run
	@echo "wrote $(LEDGER_OUT)"

# A/B ledger of one workload against a base revision:
#   make ledger-ab W=race-tsp1000 BASE=HEAD~1
# BASE is exported with git archive into _build/ledger-base and built
# there.  Base and working-tree runs then alternate seed by seed (1-10,
# then the held-out 1985), 30 s untraced each, so host contention that
# drifts over minutes lands on both sides of every pair instead of on
# one whole file; `ledger compare` reads the two files at the end.
BASE ?= HEAD
LEDGER_BASE_DIR = _build/ledger-base
LEDGER_AB_BASE = ledger-ab-base-$(W).jsonl
LEDGER_AB_WORK = ledger-ab-work-$(W).jsonl
ledger-ab:
	@rm -rf $(LEDGER_BASE_DIR) && mkdir -p $(LEDGER_BASE_DIR)
	git archive $(BASE) | tar -x -C $(LEDGER_BASE_DIR)
	@rm -f $(LEDGER_AB_BASE) $(LEDGER_AB_WORK)
	@for s in 1 2 3 4 5 6 7 8 9 10 1985; do \
	  (cd $(LEDGER_BASE_DIR) && bash bench/ledger/run.sh --workload $(W) --seed $$s \
	    --seconds 30 --trace 0 --json ledger-ab.run) || exit 1; \
	  cat $(LEDGER_BASE_DIR)/ledger-ab.run >> $(LEDGER_AB_BASE); \
	  bash bench/ledger/run.sh --workload $(W) --seed $$s --seconds 30 --trace 0 \
	    --json $(LEDGER_AB_WORK).run || exit 1; \
	  cat $(LEDGER_AB_WORK).run >> $(LEDGER_AB_WORK); \
	done
	@rm -f $(LEDGER_AB_WORK).run
	dune exec bench/ledger/ledger.exe -- compare $(LEDGER_AB_BASE) -- $(LEDGER_AB_WORK)

# Chaos demo: a supervised campaign where every run's first attempt is
# sabotaged (a cost fault injected mid-walk), so each run exercises the
# abort -> retry -> complete path; the report is schema-validated.
# (dune runtest runs a smaller version via the resilience-smoke alias.)
chaos:
	dune exec bin/sa_lab.exe -- generate --seed 5 -e 15 --nets 80 > chaos_inst.net
	dune exec bin/sa_lab.exe -- supervise chaos_inst.net --runs 4 -n 20000 \
	  --chaos raise-cost --chaos-attempts 1 --report chaos_report.json
	dune exec bench/check_json.exe -- chaos_report.json

# The annealing job daemon: crash-safe state under STATE_DIR, HTTP on
# SA_LABD_PORT (0 = ephemeral; the bound port is written to
# $(STATE_DIR)/sa_labd.port).  SIGTERM drains gracefully; restarting
# over the same STATE_DIR resumes interrupted jobs from their latest
# checkpoints.  See README.md for curl examples.
STATE_DIR ?= sa_labd_state
SA_LABD_PORT ?= 8080
serve:
	dune exec bin/sa_labd.exe -- --state-dir $(STATE_DIR) --port $(SA_LABD_PORT)

# Live dashboard for a run started with --telemetry-port (default 9090;
# override with TELEMETRY_PORT=...).
TELEMETRY_PORT ?= 9090
top:
	dune exec bin/sa_lab.exe -- top --port $(TELEMETRY_PORT)

# Deterministic sampling profile of a portfolio race on a generated
# TSP, rendered to flame.svg if a folded-stack renderer is on PATH
# (inferno-flamegraph or flamegraph.pl); otherwise the .folded file is
# the artifact.
flame:
	dune exec bin/sa_lab.exe -- generate --seed 7 -e 40 --nets 220 > flame_inst.net
	dune exec bin/sa_lab.exe -- run flame_inst.net -n 200000 \
	  --profile sa_lab.folded
	@if command -v inferno-flamegraph >/dev/null 2>&1; then \
	  inferno-flamegraph sa_lab.folded > flame.svg && echo "wrote flame.svg"; \
	elif command -v flamegraph.pl >/dev/null 2>&1; then \
	  flamegraph.pl sa_lab.folded > flame.svg && echo "wrote flame.svg"; \
	else \
	  echo "no flamegraph renderer found; folded stacks in sa_lab.folded"; \
	fi

examples:
	@for e in quickstart gola_study nola_goto tsp_compare partition_demo \
	          channel_router cooling_profile floorplan_demo wiring_demo; do \
	  echo "== $$e =="; dune exec examples/$$e.exe; echo; done

doc:
	dune build @doc

clean:
	dune clean
