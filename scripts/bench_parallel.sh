#!/bin/sh
# bench_parallel.sh — measure the partitioned-execution speedups on the
# current host and report them against their acceptance targets:
#
#   PR 7  (Config.Tenants / Config.Shards): one run sharded across
#         broker-coupled cells. Target: >=1.5x wall-clock at 2 shards
#         vs 1 shard on a multi-core host (BenchmarkFig3_Sharded).
#   PR 10 (Config.DiskShards): a single-tenant run cut along the disk
#         boundary — home kernel keeps CPU/buffer/queries, disk groups
#         run on their own kernels. Target: wall-clock reduction at
#         DiskShards>1 on a multi-core host, and the classic path
#         untouched at DiskShards<=1 (BenchmarkFig3_DiskSharded).
#
# Both knobs are pure execution knobs — every variant simulates
# bit-identically (pinned by TestShardedConformance and
# TestDiskShardedConformance) — so wall-clock ratios are the whole
# story. On a single-CPU host (GOMAXPROCS=1) worker goroutines
# serialize and neither target can physically manifest; the script
# still runs and prints the algorithmic-overhead numbers, but flags
# the host as unable to show parallelism. Run from the repo root:
#
#   scripts/bench_parallel.sh [benchtime]
#
# benchtime defaults to 3x (three runs per variant; pass e.g. 10x or
# 2s for tighter numbers on a quiet machine).
set -eu
cd "$(dirname "$0")/.."
BT="${1:-3x}"

NCPU="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo '?')"
echo "host: $(uname -sm), CPUs=${NCPU}, GOMAXPROCS=${GOMAXPROCS:-unset}, go $(go env GOVERSION)"
if [ "${GOMAXPROCS:-$NCPU}" = "1" ]; then
    echo "WARNING: GOMAXPROCS=1 — workers serialize; parallel speedup targets"
    echo "cannot manifest on this host. Numbers below measure overhead only."
fi
echo

echo "== message-path micro-benchmarks (must stay 0 allocs/op) =="
go test ./internal/sim -run '^$' -bench 'BenchmarkCoordinatorWindow' -benchmem -benchtime "$BT" | grep Benchmark || true
go test ./internal/disk -run '^$' -bench 'BenchmarkDiskHandoff' -benchmem -benchtime "$BT" | grep Benchmark || true
echo

echo "== PR 7: multi-tenant sharding (target: shards=2 >= 1.5x shards=1) =="
go test -run '^$' -bench 'BenchmarkFig3_Sharded' -benchtime "$BT" . | tee /tmp/bench_sharded.$$ | grep Benchmark || true
echo

echo "== PR 10: single-tenant disk cut (target: disk-shards>1 < disk-shards=0) =="
go test -run '^$' -bench 'BenchmarkFig3_DiskSharded' -benchtime "$BT" . | tee /tmp/bench_disksharded.$$ | grep Benchmark || true
echo

# Go suffixes benchmark names with -GOMAXPROCS when it is above 1
# (shards=1-2 on a 2-CPU host), so every pattern allows a -N suffix.
awk '
/BenchmarkFig3_Sharded\/shards=1(-[0-9]+)? /      { s1 = $3 }
/BenchmarkFig3_Sharded\/shards=2(-[0-9]+)? /      { s2 = $3 }
END {
    if (s1 > 0 && s2 > 0)
        printf "PR 7  speedup at 2 shards:      %.2fx (target >= 1.5x on multi-core)\n", s1 / s2
}' /tmp/bench_sharded.$$
awk '
/BenchmarkFig3_DiskSharded\/disk-shards=0(-[0-9]+)? / { d0 = $3 }
/BenchmarkFig3_DiskSharded\/disk-shards=2(-[0-9]+)? / { d2 = $3 }
END {
    if (d0 > 0 && d2 > 0)
        printf "PR 10 speedup at 2 disk shards: %.2fx (target > 1x on multi-core)\n", d0 / d2
}' /tmp/bench_disksharded.$$
rm -f /tmp/bench_sharded.$$ /tmp/bench_disksharded.$$
