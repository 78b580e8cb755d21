GO ?= go

.PHONY: all build test vet tier1 bench bench-smoke bench-guard docs lint golden golden-check race-probe city-scale-smoke serve-race serve-wire-race fuzz-smoke serve-soak bench-module-test clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# tier1 is the gate every PR must keep green.
tier1: build test

# docs checks that every package carries a doc comment for its godoc front
# page: `// Package <name>` for libraries (internal/* and the root),
# `// Command <name>` for cmd/*, and any leading doc comment for examples.
docs:
	@fail=0; \
	for d in internal/*/ .; do \
		grep -qs '^// Package ' $$d/*.go || { echo "missing '// Package' comment in $$d"; fail=1; }; \
	done; \
	for d in cmd/*/; do \
		grep -qs '^// Command ' $$d/*.go || { echo "missing '// Command' comment in $$d"; fail=1; }; \
	done; \
	for d in examples/*/; do \
		head -1 $$d/main.go | grep -qs '^//' || { echo "missing doc comment in $$d"; fail=1; }; \
	done; \
	[ $$fail -eq 0 ] && echo "package comments: OK" || exit 1

# lint is the static gate CI runs: formatting, vet, package comments.
lint: vet docs
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

# golden regenerates the pinned goldens from the current model: the
# run-fingerprint goldens, the timeline-figure stdout and the stdout of
# every RunConfig-batch figure (fig2, fig6, fig7, fig8, headline,
# compare). Only for deliberate, documented model changes — the goldens
# certify that performance kernels and refactors (like the estimator
# framework extraction and the probe bus) leave simulation trajectories
# bit-identical, so a regen that accompanies an "exact" rewrite is a red
# flag in review.
golden:
	$(GO) test ./internal/experiment -run TestGoldenRunFingerprints -update-goldens
	$(GO) test ./internal/scenario -run 'TestGoldenTimelineFigure|TestGoldenFigures' -update-goldens

# golden-check verifies the committed goldens match the current model (the
# CI guard that a PR did not drift the model without regenerating — or
# regenerate without saying so; either way the diff makes it visible). It
# also asserts every golden config still compiles to the dense channel
# representation: the goldens certify the dense reference trajectories, so
# a threshold change that silently flipped them to the sparse path would
# hollow out what they certify.
golden-check:
	$(GO) test ./internal/experiment -run 'TestGoldenRunFingerprints|TestGoldenConfigsSelectDensePath' -count=1
	$(GO) test ./internal/scenario -run 'TestGoldenTimelineFigure|TestGoldenFigures' -count=1

# city-scale-smoke boots the 2000-node city corridor preset over the
# sparse audible-set channel under the race detector: representation pin
# (sparse selected, dense for goldens) plus a short end-to-end run that
# must form a tree and deliver traffic. The named CI step for the spatial
# index; the 10k preset is covered by the cheap precompute-only pin.
city-scale-smoke:
	$(GO) test -race -count=1 -run 'TestCityPresetsSelectSparse|TestCityScaleSmoke' ./internal/scenario
	$(GO) test -count=1 -run TestGoldenConfigsSelectDensePath ./internal/experiment

# race-probe runs the probe-bus test surface under the race detector: the
# bus itself is single-threaded per run, but many probed runs execute
# concurrently on the experiment worker pool, so the emit paths must stay
# data-race-free. CI runs the whole suite with -race; this target is the
# focused local loop.
race-probe:
	$(GO) test -race -count=1 ./internal/probe ./internal/trace ./internal/node
	$(GO) test -race -count=1 -run 'TestTimeline|TestReplicateCarriesTimelines' ./internal/experiment
	$(GO) test -race -count=1 -run 'TestAgility|TestWriteTimeline|TestScenarioTimelineRows' ./internal/scenario

# serve-race runs the estimation-service surface under the race detector:
# every instance pairs one worker goroutine against concurrent HTTP
# handlers (ingest, barrier-synced queries, snapshot, janitor eviction),
# so this is the layer where a data race would surface first. Includes
# the chaostest fault-injection harness end to end.
serve-race:
	$(GO) test -race -count=1 ./internal/serve/... ./cmd/fourbitsim

# serve-wire-race runs the binary wire surface under the race detector:
# the codec + converters, the batching client (whose Feed/Flush paths race
# against the server's pooled frame readers and batch admission), and the
# chaostest binary-surface certifications (cross-format bit-identity,
# kill/restore over binary, hostile frames, batch backpressure). serve-race
# covers these packages too; this is the focused loop for wire changes and
# the named CI step that surfaces a wire race in the job list.
serve-wire-race:
	$(GO) test -race -count=1 ./internal/serve/wire ./internal/serve/client
	$(GO) test -race -count=1 -run 'TestBinary' ./internal/serve/chaostest

# fuzz-smoke runs each native fuzz target briefly against the saved seed
# corpus plus a few seconds of new inputs — a tripwire for decoder
# regressions (panics, untyped errors, scratch aliasing), not a deep
# campaign. Longer runs: go test -fuzz FuzzDecodeEvent ./internal/serve/wire
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/packet
	$(GO) test -run '^$$' -fuzz FuzzDecodeLEFrame -fuzztime 5s ./internal/packet
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvent -fuzztime 5s ./internal/serve/wire
	$(GO) test -run '^$$' -fuzz FuzzDecodeWireBatch -fuzztime 5s ./internal/serve/wire

# serve-soak is the long-haul chaos run: 8 instances (2 per estimator
# kind) under sustained randomized ingest with concurrent queriers, one
# kill/snapshot/restore cycle in the middle, 60 s total, under -race.
# Nightly-tier — not part of tier1 or the per-PR CI gate.
serve-soak:
	$(GO) test -race -count=1 -run TestServeSoak ./internal/serve/chaostest \
		-soak -soak-duration 60s -timeout 10m -v

# bench runs vet + tier-1 + a one-iteration bench smoke and snapshots the
# results (with metadata) into BENCH_<date>.json for cross-PR perf diffs.
bench:
	./scripts/bench.sh

# bench-smoke: just the one-iteration bench pass, no snapshot.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# bench-guard enforces the committed allocation budgets
# (scripts/alloc_budget.txt): CI fails when a budgeted benchmark's
# allocs/op regresses past its ceiling. ns/op is too machine-dependent to
# gate on; allocation counts are exact, so they make the durable ratchet.
bench-guard:
	./scripts/bench_guard.sh

# bench-module-test builds and tests the end-to-end benchmark, which is its
# own module (fourbitbench/go.mod, replacing fourbit with ../): the root
# `go build ./... && go test ./...` never compiles it, so a serve, client or
# wire API change could otherwise break the benchmark unseen. ~30-40 s.
bench-module-test:
	cd fourbitbench && $(GO) test ./...

# BENCH_*.json snapshots are committed perf history — clean leaves them.
clean:
	$(GO) clean ./...
