# Convenience wrappers; everything real lives in dune.

DUNE ?= dune
SIM   = $(DUNE) exec bin/mdst_sim.exe --

.PHONY: all build test pbt pbt-long explore fuzz fuzz-long mutate bench bench-json bench-proto bench-parallel bench-guard pardet fpbench-digests clean

all: build

build:
	$(DUNE) build @all

# Tier-1: bounded, fixed seeds, must stay fast (CI budget: 60 s).
test:
	$(DUNE) build
	$(DUNE) runtest

# Quick interactive property sweep (same defaults as CI's smoke run).
pbt: build
	$(SIM) pbt

# Extended sweep for nightly use: more cases, larger graphs and plans,
# plus the broken-variant self-check (must be falsified and shrunk).
pbt-long: build
	$(SIM) pbt --tests 500 --seed 20090525 --max-nodes 14 --max-events 8
	$(SIM) pbt --broken --tests 60 --seed 20090525

# Bounded schedule exploration: exhaustive delivery interleavings of a
# small instance, conformance against the reference model plus closure of
# the legitimacy predicate on every path (see docs/TESTING.md).
explore: build
	$(SIM) explore -f complete -n 4
	$(SIM) explore -f complete -n 4 --suppressed

# Coverage-guided schedule fuzzing smoke: swarm sweep + a short guided
# campaign, every execution in lockstep with the reference model.  Fails
# (non-zero) when a trophy is found; the reproducer is printed.
fuzz: build
	$(SIM) fuzz --quick --seed 1

# Extended campaign for nightly use: 20-minute budget, full graph sizes,
# corpus persisted under _fuzz-corpus/ (trophies land there too).
fuzz-long: build
	$(SIM) fuzz --budget 1200 --seed 20090525 --corpus _fuzz-corpus

# Mutation-check the suite: each historical-bug mutant must be detected
# when forced on and leave the probes silent when forced off.
mutate: build
	$(SIM) mutate

bench: build
	$(DUNE) exec bench/main.exe

# Engine macro-benchmarks (experiment E19): the tracked perf trajectory.
bench-json: build
	$(SIM) bench --out BENCH_engine.json

# Protocol macro-benchmarks (experiment E20): convergence time, message
# volume and allocation, with and without Info suppression.
bench-proto: build
	$(SIM) bench --proto --out BENCH_proto.json

# Parallel-engine trajectory: the full v2 sweep (sequential baselines plus
# the sharded engine at 2/4/8 domains with the speedup column), then the
# determinism gate — identical quiescence fingerprints across shard counts.
# Speedups above 1 need more cores than domains; the JSON header records
# how many the machine had.
bench-parallel: build
	$(SIM) bench --out BENCH_engine.json
	$(SIM) pardet -f grid -n 64 -s 11 --domains 1,2,4

# Regenerate the pinned simulated schedules: the fpbench digest lines
# (seed 1, 2 s batches) that CI's convergence benchmark smoke diffs
# against.  Only for an intended schedule change (say, merging the two
# engines); the commit should say why the schedules moved.
fpbench-digests: build
	for w in er-clean er-corrupt star-hub grid-pengine; do \
	  $(DUNE) exec --root . --display quiet -- ./fpbench/main.exe \
	    --workload $$w --seed 1 --seconds 2 --trace 0 | grep '^digest ' || exit 1; \
	done > test/golden/fpbench-digests.txt

# Parallel determinism gate alone: sharded-schedule conformance (model +
# sequential-engine replay) and fingerprint equivalence across 1/2/4
# shards.  Non-zero exit on any divergence.
pardet: build
	$(SIM) pardet -f grid -n 36 -s 7 --domains 1,2,4
	$(SIM) pardet -f er -n 24 -s 3 --init clean --domains 1,2,4

# Regression guard: re-measure quick engine points and compare against the
# committed trajectory (fails on an events/sec drop beyond 30% on any
# matching (topology, n, domains) key; v1 baselines parse as domains=1).
bench-guard: build
	$(SIM) bench --quick --out /tmp/BENCH_engine_fresh.json --baseline BENCH_engine.json

clean:
	$(DUNE) clean
