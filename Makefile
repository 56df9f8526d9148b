GO ?= go

.PHONY: build test race race-store flaky-check vet bench-alloc bench-alloc-smoke bench-metrics bench-rlnc bench-rlnc-smoke bench-swarm bench-swarm-smoke bench-wire bench-wire-smoke chaos churn-smoke crash-smoke fuzz-smoke overload-smoke swarm-smoke ci check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs every package once under the race detector: the audit
# path, metrics scrape-while-write, the codec and wire hot paths, the
# muxed sessions, the hedged scheduler and the peer's admission
# bookkeeping, discovery, contracts, allocation and the netsim
# scenarios. The 0-alloc gates only count allocations without -race;
# `make test` runs them plain.
race: vet
	$(GO) test -race ./...

# flaky-check reruns the packages whose tests race real goroutines
# against the netsim fabric and live sockets three times in shuffled
# order, so an order- or timing-dependent test fails in CI instead of
# now and then.
flaky-check:
	$(GO) test -count=3 -shuffle=on ./internal/netsim/harness/ ./internal/peer/ ./internal/client/

# race-store exercises the durability layer under the race detector,
# twice: the fsx filesystem seam and fault injector, the journaled
# store's crash-point and fault sweeps, and the ledger checkpointer.
# Run before touching anything that fsyncs.
race-store: vet
	$(GO) test -race -count=2 ./internal/fsx/... ./internal/store/... ./internal/fairshare/...

# churn-smoke is the proactive-repair acceptance slice: 30% of the
# storage peers holding a file are killed and blackholed, the repair
# daemon restores the replica watermark on spare peers within a 3x
# traffic budget, a cold client still fetches byte-identical plaintext,
# and contract state on both sides survives a power cut — under -race.
churn-smoke:
	$(GO) test -race -run TestChurnRepairKeepsFileFetchable ./internal/netsim/harness/

# swarm-smoke is the CI-sized trackerless acceptance slice: a 128-peer
# netsim swarm gossips a file, the tracker is killed mid-run, and a
# cold client still fetches byte-identical plaintext through DHT
# discovery — plus the failover-direction tests — under -race.
swarm-smoke:
	$(GO) test -race -run 'TestSwarmSmoke|TestDiscoveryFailoverNetsim' ./internal/netsim/harness/

# overload-smoke is the overload-resilience acceptance slice: a 4x
# flash crowd against one admission-capped peer (goodput holds, sheds
# hit free riders in standing order and never the top quartile, shed
# clients honor the RETRY_AFTER hint), a blackholed peer survived
# within 2x the no-fault baseline via hedged fetches with breaker
# quarantine and half-open recovery, and a stalled chunk re-issued on
# the next-healthiest peer — plus the deterministic peer-side
# admission, preemption, brownout and deadline-expiry unit suite and
# the client-side breaker/session regressions.
overload-smoke:
	$(GO) test -run 'TestFlashCrowdShedsFreeRidersAndKeepsGoodput|TestHedgedCrowdWaitsOutBusySheds|TestHedgedFetchSurvivesBlackholedPeerWithinTwiceBaseline|TestHedgeReissuesStalledChunkOnNextPeer' \
		./internal/netsim/harness/
	$(GO) test -run 'Admission|Shed|Brownout|Expired|Breaker|Hedge|Busy|Deadline|DuplicateStreamError' \
		./internal/peer/ ./internal/client/ ./internal/wire/

# crash-smoke is the crash-recovery acceptance slice on its own: every
# power-cut and I/O-fault sweep over the journaled store, the
# checkpointer's dual-slot sweeps, and the end-to-end
# kill-peer-mid-dissemination scenario in the harness.
crash-smoke:
	$(GO) test -run 'CrashPointSweep|FaultInjectionSweep|CheckpointCrashSweep|CheckpointFaultSweep|JournalRecoveryTable|PeerCrashMidDissemination' \
		./internal/store/ ./internal/fairshare/ ./internal/netsim/harness/

# bench-metrics reports allocs/op for the metrics hot path; Counter.Inc
# and Histogram.Observe must stay at 0 (TestHotPathAllocFree enforces
# it, this target is for eyeballing the numbers).
bench-metrics:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/metrics/

# bench-rlnc measures the codec engine: the GF region kernels, both
# decode engines head to head, and the codec grid that backs
# EXPERIMENTS.md, leaving the machine-readable report in
# BENCH_rlnc.json (decode-pipeline must show >= 2x decode-sequential
# MB/s at p=8, k=64; TestPipelineSteadyStateAllocs pins the 0 B/op
# claim).
bench-rlnc:
	$(GO) test -bench 'BenchmarkMulAddSlice|BenchmarkDecode' -benchmem -run '^$$' ./internal/gf/ ./internal/rlnc/
	$(GO) run ./cmd/benchrlc -codec -size 1048576 -reps 5 -json BENCH_rlnc.json

# bench-rlnc-smoke is the quick CI variant: tiny generations, one rep,
# throwaway report — it proves the grid runs, not the numbers.
bench-rlnc-smoke:
	$(GO) run ./cmd/benchrlc -codec -size 65536 -reps 1 -json /tmp/BENCH_rlnc_smoke.json

# bench-wire measures the zero-copy wire hot path end to end over
# loopback TCP — decode-pipeline ceiling, transport-only throughput,
# and the muxed fetch — and gates the fetch at 85% of the achievable
# composite (see cmd/benchwire). Refreshes BENCH_wire.json.
bench-wire:
	$(GO) run ./cmd/benchwire -sizes 262144,1048576 -streams 1,4 -workers 0,2 -reps 3 -gate 0.85 -json BENCH_wire.json

# bench-wire-smoke is the quick CI variant: one small cell, throwaway
# report, no gate (shared runners make throughput ratios too noisy to
# fail a build on).
bench-wire-smoke:
	$(GO) run ./cmd/benchwire -sizes 262144 -streams 1,4 -reps 2 -json /tmp/BENCH_wire_smoke.json

# bench-swarm measures trackerless scaling — DHT lookup hops and gossip
# dissemination rounds/time against swarm size — leaving the
# machine-readable report in BENCH_swarm.json (median hops must grow
# sub-linearly in N; see EXPERIMENTS.md).
bench-swarm:
	$(GO) run ./cmd/benchswarm -sizes 64,256,1024 -samples 32 -json BENCH_swarm.json

# bench-swarm-smoke is the quick CI variant: one small swarm, throwaway
# report — it proves the pipeline runs, not the scaling curve.
bench-swarm-smoke:
	$(GO) run ./cmd/benchswarm -sizes 64 -samples 8 -json /tmp/BENCH_swarm_smoke.json

# bench-alloc measures the allocation subsystem — the policy grid
# (fairness, free-rider payoff, convergence, bounded-ledger fidelity)
# and the bounded-ledger realloc tick against 10^5 distinct requesters
# — leaving the machine-readable report in BENCH_alloc.json (see
# EXPERIMENTS.md; sharded entries must stay at the bound and the tick
# must scale with the active set, not the distinct population).
bench-alloc:
	$(GO) run ./cmd/benchalloc -slots 600 -json BENCH_alloc.json

# bench-alloc-smoke is the quick CI variant: a short run, throwaway
# report — it proves the grid and tick bench run, not the numbers.
bench-alloc-smoke:
	$(GO) run ./cmd/benchalloc -slots 120 -json /tmp/BENCH_alloc_smoke.json

# chaos runs the deterministic fault-injection suite — the netsim
# fabric's own tests plus the end-to-end harness (tracker + peers +
# clients over simulated partitions, blackholes and drops) — twice,
# under the race detector. Every harness test logs its fabric seed
# (shown with -v and on failure); replay an exact failure with
# NETSIM_SEED=<seed> make chaos.
chaos: vet
	$(GO) test -race -count=2 ./internal/netsim/...

# fuzz-smoke gives each wire fuzz target a short adversarial run on
# top of the checked-in seed corpus (which plain `go test` already
# replays). New crashers land in internal/wire/testdata/fuzz/.
fuzz-smoke:
	$(GO) test -fuzz FuzzReadFrame -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzFrameReader -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzHandshakeResponder -fuzztime 10s -run '^$$' ./internal/wire/
	$(GO) test -fuzz FuzzHandshakeInitiator -fuzztime 10s -run '^$$' ./internal/wire/

# ci is what the GitHub workflow runs.
ci: vet build test race race-store flaky-check swarm-smoke churn-smoke overload-smoke chaos

check: ci
