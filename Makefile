# Convenience targets; everything is plain dune underneath.
SHELL := /bin/bash

.PHONY: all build test bench perfcheck doc lint check ci clean

all: build

build:
	dune build

test:
	dune runtest

# Regenerate every table and figure of the paper's evaluation.
bench:
	dune exec bin/lockiller_sim.exe -- experiment all

# Lint: the event engine, coherence protocol and HTM value layer must
# stay free of polymorphic compare/max/min (judged on the typed trees,
# so it lints the build tree), generic Hashtbl and Printf, and every
# value a library interface exports must be referenced from outside its
# module (see tools/lint.ml for the rules and the waiver pragmas).
# `dune runtest` runs it too.
lint:
	dune build @tools/lint

# Correctness checkers (lib/check): exhaustively explore every event
# interleaving of the small canned scenarios, fuzz 200 seeded random
# schedules per scenario, and verify that each deliberately injected
# protocol mutation is caught by both the sanitizer and the explorer.
# `dune runtest` runs it too.
check:
	dune exec bin/lockiller_sim.exe -- check

# API docs (doc/index.mld + the interface docstrings). odoc is an
# optional dev dependency, so the target degrades to a notice when it
# is absent; when it runs, any odoc warning (broken {!reference},
# missing docstring markup, bad .mld syntax) fails the build.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  out=$$(dune build @doc 2>&1); status=$$?; \
	  if [ -n "$$out" ]; then printf '%s\n' "$$out"; fi; \
	  if [ $$status -ne 0 ]; then exit $$status; fi; \
	  if printf '%s' "$$out" | grep -qi warning; then \
	    echo "make doc: odoc warnings are treated as errors"; exit 1; \
	  fi; \
	  echo "docs built: _build/default/_doc/_html/index.html"; \
	else \
	  echo "make doc: odoc not installed, skipping (opam install odoc)"; \
	fi

# Perf regression gate: rerun the event-engine microbenchmarks and
# compare against the committed baseline — a 2x band on the
# deterministic allocation metrics (tight enough to catch a
# reintroduced hot-loop allocation) and a 3x band on wall-clock
# throughput (wide enough for host CPU steal; a lost wheel fast path
# costs 4x and more).
perfcheck:
	dune exec bench/main.exe
	dune exec bench/perfcheck.exe -- BENCH_micro.json bench/baseline.json

# Everything CI runs (.github/workflows/ci.yml calls this target):
# `dune build @ci` (full build, every test suite, the lint and
# the model checker), a smoke run of two paper figures (past the
# result cache, so it always simulates), the API docs and the perf
# gate.
ci:
	dune build @ci
	dune exec bin/lockiller_sim.exe -- experiment fig1 headline --scale 0.2 --no-cache
	$(MAKE) doc
	$(MAKE) perfcheck

clean:
	dune clean
