#!/usr/bin/env bash
# Compares two checkouts of the repository with identical benchmark code:
#   perfbench/compare.sh PARENT_CHECKOUT CHANGE_CHECKOUT [RUNS] [WORKLOAD...]
# Copies this perfbench/ directory into both checkouts (so both sides run
# the same benchmark), runs every workload RUNS times per side with seeds
# 1001.. (alternating which side goes first), records the runs under
# CHANGE_CHECKOUT/.bench_build/compare/ and prints the verdict table.
# SECONDS_PER_RUN (default 40) sets --seconds.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
runs="${3:-10}"
shift $(( $# < 3 ? $# : 3 ))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(plan-1d serve)
secs="${SECONDS_PER_RUN:-40}"

out="$change/.bench_build/compare"
mkdir -p "$out"
: > "$out/parent.jsonl"
: > "$out/change.jsonl"
for dir in "$parent" "$change"; do
	if [ "$dir/perfbench" != "$here" ]; then
		rm -rf "$dir/perfbench"
		cp -R "$here" "$dir/perfbench"
	fi
done

one() { # side dir workload seed
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$secs" --trace 0 \
		--record "$out/$1.jsonl" >/dev/null 2>>"$out/$1.log") || echo "run failed: $1 $3 seed $4" >&2
}

for w in "${workloads[@]}"; do
	for i in $(seq 1 "$runs"); do
		seed=$((1000 + i))
		if [ $((i % 2)) -eq 1 ]; then
			one parent "$parent" "$w" "$seed"
			one change "$change" "$w" "$seed"
		else
			one change "$change" "$w" "$seed"
			one parent "$parent" "$w" "$seed"
		fi
	done
done
"$change/.bench_build/perfbench/perfbench" compare "$out/parent.jsonl" "$out/change.jsonl"
