#!/usr/bin/env bash
# Virtual-time fingerprint: runs a fixed fftsim matrix twice per row, each run
# writing its Chrome trace, and fails unless stdout and the trace are
# byte-identical across the two runs. The simulated clock is deterministic, so
# any difference is a determinism bug (map iteration, goroutine ordering).
#
# Usage: scripts/fingerprint.sh [outdir]
#
# With outdir, each row's stdout (<row>.txt) and trace (<row>.json) are kept
# there, so two trees can be compared row by row with diff -r.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
out=${1:-$work/out}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$(dirname "$0")/.."
go build -o "$work/fftsim" ./cmd/fftsim

rows=()
for aware in "" "-no-gpu-aware"; do
	for algo in linear ring auto; do
		rows+=(
			"-n 64 -ranks 8 -decomp pencils -algo $algo $aware"
			"-n 128 -ranks 24 -algo $algo $aware"
			"-n 64 -ranks 12 -decomp slabs -algo $algo $aware"
			"-n 96 -ranks 48 -decomp pencils -wire fp32 -algo $algo $aware"
		)
	done
done
# Paper-scale group sizes: 384-rank brick↔pencil reshapes with a handful of
# peers per rank, so the sparse all-to-all path runs at a size where it matters.
rows+=("-n 128 -ranks 384" "-n 128 -ranks 384 -no-gpu-aware")
for backend in alltoall alltoallw p2p; do
	rows+=("-n 64 -ranks 12 -backend $backend")
done

fail=0
for row in "${rows[@]}"; do
	row=${row% }
	name=$(printf '%s' "$row" | sed 's/^-//; s/ -/_/g; s/ /=/g')
	for run in 1 2; do
		mkdir -p "$work/$run"
		# The trace path is relative so it prints identically in both runs.
		(cd "$work/$run" && "$work/fftsim" -iters 4 $row -trace trace.json >stdout.txt)
	done
	if cmp -s "$work/1/stdout.txt" "$work/2/stdout.txt" && cmp -s "$work/1/trace.json" "$work/2/trace.json"; then
		echo "ok    $row"
	else
		echo "FAIL  $row (output differs between two identical runs)"
		fail=1
	fi
	cp "$work/1/stdout.txt" "$out/$name.txt"
	cp "$work/1/trace.json" "$out/$name.json"
done
exit $fail
