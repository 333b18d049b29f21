#!/usr/bin/env bash
# Paired benchmark comparison of BASE_REF against HEAD, from inside the
# repository:
#
#   bash bench/compare.sh BASE_REF [PAIRS]      # PAIRS defaults to 10
#   BENCH_ARGS="-workload fig3-cold -seed 3" bash bench/compare.sh HEAD~1
#
# Both sides are snapshots taken with `git archive`, and HEAD's bench/ is
# copied into the base snapshot, so both run identical benchmark code and
# settings and only the simulator differs. Pairs alternate which side
# runs first. Each side writes one JSON run record per pair; the verdicts
# come from `pmmbench -compare`, which reads those records (never test
# names) and prints medians, quartiles, win fractions and a verdict per
# metric and workload.
set -euo pipefail

base_ref=${1:?usage: compare.sh BASE_REF [PAIRS]}
pairs=${2:-10}
read -r -a bench_args <<<"${BENCH_ARGS:-}"
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/pmmbench-compare.XXXXXX")
trap 'rm -rf "$work"' EXIT

for side in base head; do
	mkdir -p "$work/$side/src" "$work/$side/records" "$work/$side/scratch"
done
git -C "$root" archive "$base_ref" | tar -x -C "$work/base/src"
git -C "$root" archive HEAD | tar -x -C "$work/head/src"
rm -rf "$work/base/src/bench"
git -C "$root" archive HEAD bench | tar -x -C "$work/base/src"
for side in base head; do
	GOWORK=off go -C "$work/$side/src/bench" build -o "$work/$side/pmmbench" ./pmmbench
done

run() { # side pair
	local rec
	rec=$work/$1/records/$(printf '%03d' "$2").json
	if ! (cd "$work/$1" && ./pmmbench -dir "$work/$1/scratch" -out "$rec" ${bench_args[@]+"${bench_args[@]}"} \
		>"$work/$1/pair-$2.log"); then
		echo "compare: $1 exited non-zero on pair $2 (see its ops_failed below)" >&2
	fi
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run base "$i"
		run head "$i"
	else
		run head "$i"
		run base "$i"
	fi
	echo "compare: pair $i of $pairs done" >&2
done
echo "base $(git -C "$root" rev-parse "$base_ref") vs head $(git -C "$root" rev-parse HEAD)"
"$work/head/pmmbench" -compare "$work/base/records" "$work/head/records"
