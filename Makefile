# Build, test, and analysis gates for swfpga. `make check` is the full
# pre-merge gate CI runs; each target also works standalone.

GO ?= go
FUZZTIME ?= 10s

# Concurrent packages that get a dedicated -race run.
RACE_PKGS := ./internal/search/... ./internal/wavefront/... ./internal/host/... ./internal/telemetry/... ./internal/server/... ./internal/engine/sched/... ./internal/swar/...

# package:target pairs for the fuzz smoke. `go test -fuzz` takes one
# target per invocation, so the smoke loops over them.
FUZZ_TARGETS := \
	internal/align:FuzzLocalEnginesAgree \
	internal/align:FuzzGlobalScoreConsistent \
	internal/align:FuzzBandedFullBand \
	internal/linear:FuzzLinearPipelines \
	internal/linear:FuzzMyersMiller \
	internal/linear:FuzzAffineRestricted \
	internal/seq:FuzzPackedRoundTrip \
	internal/seq:FuzzFASTARoundTrip \
	internal/seq:FuzzScanReadAgree \
	internal/seq:FuzzShardHeaderDecode \
	internal/systolic:FuzzArrayMatchesSoftware \
	internal/systolic:FuzzAffineArrayMatchesGotoh \
	internal/server:FuzzDecodeRequest

.PHONY: build vet swvet swvet-ignores test race chaos-smoke telemetry-smoke bench-smoke swar-smoke stream-smoke servd-smoke load-smoke index-smoke perfbench-test fuzz-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

swvet:
	$(GO) run ./cmd/swvet ./...

# Suppression audit: every //swvet:ignore marker must carry a written
# justification; a bare marker fails the gate.
swvet-ignores:
	$(GO) run ./cmd/swvet -ignores ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Seeded fault-injection runs of the fault-tolerant cluster scan under
# the race detector (DESIGN.md §7): every chaos property test replays
# deterministic fault schedules and asserts bit-identical results.
chaos-smoke:
	$(GO) test -race ./internal/host -run 'Chaos' -count=1

# Live-introspection smoke (DESIGN.md §8): a real swsearch run serving
# /metrics, /debug/vars and /debug/pprof on an ephemeral port, scraped
# while it lingers; also checks the JSONL trace and run manifest.
telemetry-smoke:
	bash scripts/telemetry_smoke.sh

# Engine-layer smoke (DESIGN.md §9): the zero-alloc assertion on the
# pooled DP-row hot path, the conformance suite over every registered
# backend, and the pooled-vs-unpooled comparison at search scale.
bench-smoke:
	$(GO) test ./internal/align -run TestScanHotPathZeroAlloc -count=1
	$(GO) test ./internal/engine/... -count=1
	$(GO) run ./cmd/swbench -run alloc -scale 0.02

# SWAR lane-kernel smoke (DESIGN.md §14): the batched scan through the
# sixth engine must reproduce the scalar software engine's hits bit for
# bit and clear the 4x speedup floor on the seeded corpus (best-of-3
# timing so a loaded runner does not trip the gate on noise).
swar-smoke:
	$(GO) run ./cmd/swbench -run swar -scale 0.1 -reps 3

# Reduced-memory smoke (DESIGN.md §10): streams a 128 MiB generated
# database (including an unwrapped 18 MiB record) under a 16 MiB budget
# and asserts the hits are bit-identical to the in-memory search while
# peak heap growth stays bounded by the budget, not the database.
stream-smoke:
	SWFPGA_STREAM_SMOKE=1 $(GO) test ./internal/search -run TestStreamSmokeHeapBudget -count=1 -v

# Daemon smoke (DESIGN.md §11): a real swservd on an ephemeral port
# under a seeded fault schedule — concurrent search burst, align,
# engines/healthz/metrics scrapes, then SIGTERM and a clean drain.
servd-smoke:
	bash scripts/servd_smoke.sh

# Perf-trajectory smoke (DESIGN.md §12): every committed swload
# scenario — the library streaming scan (scalar and SWAR engines), the
# indexed shard scan, and a live swservd over HTTP — gated against the
# baselines in baselines/ with per-metric tolerance bands, plus a
# perturbed-report check that the gate actually trips.
load-smoke:
	bash scripts/load_smoke.sh

# Shard-index smoke (DESIGN.md §13): multi-shard swindex build,
# byte-identical hits across the FASTA, indexed-streaming and merge-tier
# scan paths, corruption refusal, and the env-gated parse-elimination +
# heap-budget gate.
index-smoke:
	bash scripts/index_smoke.sh

# Repository benchmark module (perfbench/, its own go.mod): vet and test
# it so a search or server API change that breaks the benchmark fails
# here rather than in the benchmark run.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "--- fuzz ./$$pkg $$fn ($(FUZZTIME))"; \
		$(GO) test ./$$pkg -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME); \
	done

check: build vet swvet swvet-ignores test race chaos-smoke telemetry-smoke bench-smoke swar-smoke stream-smoke servd-smoke load-smoke index-smoke perfbench-test
