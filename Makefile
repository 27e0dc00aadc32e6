GO ?= go

# The committed perf-trajectory record `make bench` writes; bump the suffix
# when a PR re-baselines the ladder.
BENCH_OUT ?= BENCH_30.json
# The previous record, used as the regression baseline for -within gates.
BENCH_BASE ?= BENCH_24.json
# Fixed iteration counts so runs are comparable across commits.
BENCH_TIME ?= 2000000x
# The wire ladder goes through real loopback sockets (µs per query, not ns),
# so it gets its own much smaller fixed count.
BENCH_NET_TIME ?= 50000x

.PHONY: all build test race chaos bench bench-all verify examples fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/lru/ ./internal/engine/ ./internal/netproto/ ./internal/policy/ ./internal/obs/... ./internal/backing/ ./internal/resilience/ ./internal/cluster/ ./internal/btree/ ./internal/kvindex/

# chaos runs the failure-injection suite (backing blackouts, writer panics,
# overload shedding, cluster node death mid-replay evicted by the gossip
# suspect → dead verdict, and a link-cut partition healed by hinted handoff)
# under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/resilience/ ./internal/engine/ ./internal/cluster/

# bench runs the core benchmark ladder (flat vs generic arrays at every
# data-plane unit capacity plus the series connection, flat query paths,
# wait-free reader scaling under a live writer, engine shard scaling, tiered
# look-through hit/miss, tracing overhead) at a fixed iteration count,
# writes the machine-readable result to $(BENCH_OUT), and fails if a flat
# core is not faster than its generic oracle, if the batched flat walks miss
# the ≥1.4x bar (ns/op ≤ 0.714× generic) on unit2/unit4/series, if Query
# under a live writer degrades as readers are added (readers=8 vs readers=1
# — wait-free reads must not convoy; a lenient 1.1 bound absorbs scheduler
# noise on small hosts), if a hit path allocates (with or without tracing),
# if tracing at the default sampling rate costs more than 5% of batch
# throughput (the TraceOverhead pair runs -count=10 and benchjson keeps each
# side's fastest run, so the tight ratio gate is noise-robust), or if a hit
# path slowed by more than the -within factor against the $(BENCH_BASE)
# baseline (a generous bound that absorbs CI noise while catching real
# regressions).
#
# The netproto leg runs the wire ladder (same loopback stack at batch sizes
# 1/8/32/64) plus the isolated decode benchmark, and gates on the tentpole
# claims: the batched path must be ≥2x the single-datagram baseline
# (batch=64 ≤ 0.5× batch=1 ns/op) and per-packet decode must not allocate.
# It also times one cluster node round trip (NodeCall: NodeClient.Query
# against a loopback NodeServer), which must not allocate at either end.
#
# The cluster leg prices the router veneer: querying a local-owner key
# through a one-node cluster.Router must cost ≤1.3× the bare engine and not
# allocate (runs -count=5, benchjson keeps each side's fastest run) — and
# the same bar holds with the self-healing machinery a one-node router can
# run armed (gossip membership on a 25 ms heartbeat, the background loop and
# the hint log): path=selfheal. It also sets HotK and a sweep cadence, but
# with Replicas at 1 the router builds no hot-key tracker and so never
# sweeps.
# The miss and write path gets the same treatment: GetOrLoad of a fresh key
# through a replicated three-node router with the dual-read windows of a
# fourth node's Leave open (path=cold-router) must not allocate and must
# cost ≤4.8× a bare engine's Query miss plus Apply (path=cold-engine). The
# same leg prices the hot-key tracker's touch (HotTouch, K = 4 and 128, one
# and two goroutines), which must not allocate, publishes included.
#
# The btree leg prices loading the kvindex server's 1M-key index: the
# one-pass BuildAscending must cost ≤0.5× the ascending Put loop it replaced
# (one build op loads 1M keys, tens of ms, so it runs a fixed -benchtime=5x
# -count=3; benchjson keeps each side's fastest run). The same leg records
# ServerLoad, the whole kvindex.NewServer(1_000_000) (index and value arena,
# built in parallel), with no gate: it is the load the index stacks pay
# before they serve.
bench:
	{ $(GO) test -run '^$$' -bench 'FlatVsGeneric|FlatQuery|FlatReaders|Engine|Tiered|Breaker|Shedder' -benchmem \
		-benchtime=$(BENCH_TIME) ./internal/lru/ ./internal/engine/ ./internal/resilience/ \
	&& $(GO) test -run '^$$' -bench 'TraceOverhead' -benchmem \
		-benchtime=$(BENCH_TIME) -count=10 ./internal/engine/ \
	&& $(GO) test -run '^$$' -bench 'WireLadder|NetDecode|NodeCall' -benchmem \
		-benchtime=$(BENCH_NET_TIME) ./internal/netproto/ \
	&& $(GO) test -run '^$$' -bench 'ClusterRouter|HotTouch' -benchmem \
		-benchtime=$(BENCH_TIME) -count=5 ./internal/cluster/ \
	&& $(GO) test -run '^$$' -bench 'BTreeBuild|ServerLoad' -benchmem \
		-benchtime=5x -count=3 ./internal/btree/ ./internal/kvindex/ ; } \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT) \
		-faster 'FlatVsGeneric/core=flat<FlatVsGeneric/core=generic' \
		-faster 'FlatVsGeneric/core=flat-batch<FlatVsGeneric/core=generic' \
		-faster 'FlatVsGeneric2/core=flat<FlatVsGeneric2/core=generic' \
		-faster 'FlatVsGeneric4/core=flat<FlatVsGeneric4/core=generic' \
		-maxratio 'FlatVsGeneric2/core=flat-batch<=0.714*FlatVsGeneric2/core=generic' \
		-maxratio 'FlatVsGeneric4/core=flat-batch<=0.714*FlatVsGeneric4/core=generic' \
		-maxratio 'FlatVsGenericSeries/core=flat<=0.714*FlatVsGenericSeries/core=generic' \
		-maxratio 'FlatReaders/readers=8<=1.1*FlatReaders/readers=1' \
		-faster 'FlatQuery/core=flat<FlatQuery/core=generic' \
		-zeroalloc 'FlatQuery/core=flat' \
		-zeroalloc 'FlatReaders/readers=8' \
		-zeroalloc 'Tiered/op=hit' \
		-zeroalloc 'Tiered/op=hit-traced' \
		-zeroalloc 'BreakerAllow' \
		-zeroalloc 'ShedderAdmit' \
		-maxratio 'TraceOverhead/trace=on<=1.05*TraceOverhead/trace=off' \
		-maxratio 'WireLadder/batch=64<=0.5*WireLadder/batch=1' \
		-zeroalloc 'NetDecode' \
		-zeroalloc 'NodeCall' \
		-maxratio 'ClusterRouter/path=local<=1.3*ClusterRouter/path=single' \
		-zeroalloc 'ClusterRouter/path=local' \
		-maxratio 'ClusterRouter/path=selfheal<=1.3*ClusterRouter/path=single' \
		-zeroalloc 'ClusterRouter/path=selfheal' \
		-maxratio 'ClusterRouter/path=cold-router<=4.8*ClusterRouter/path=cold-engine' \
		-zeroalloc 'ClusterRouter/path=cold-router' \
		-zeroalloc 'HotTouch/k=4/goroutines=1' \
		-zeroalloc 'HotTouch/k=4/goroutines=2' \
		-zeroalloc 'HotTouch/k=128/goroutines=1' \
		-zeroalloc 'HotTouch/k=128/goroutines=2' \
		-maxratio 'BTreeBuild/how=bulk<=0.5*BTreeBuild/how=put' \
		-baseline $(BENCH_BASE) \
		-within 'EngineQuery=3' \
		-within 'FlatQuery/core=flat=3' \
		-within 'Tiered/op=hit=3'

# bench-all is the exhaustive one-iteration smoke over every benchmark.
bench-all:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

verify:
	$(GO) run ./cmd/p4lru-bench verify

reproduce:
	$(GO) run ./cmd/p4lru-bench run -csv -o results all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/natgateway
	$(GO) run ./examples/querycache
	$(GO) run ./examples/flowmonitor
	$(GO) run ./examples/pipelinecheck
	$(GO) run ./examples/netquery

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f results/*.csv results/full_run.txt test_output.txt bench_output.txt
