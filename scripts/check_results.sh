#!/usr/bin/env bash
# Reproduces results/ and fails on any byte difference from the committed
# files. It builds ibpsweep once, runs every experiment at the default trace
# length (80,000 indirect branches per benchmark), and diffs the CSVs and
# the rendered stdout against results/*.csv and results/sweep.log; a file
# missing on either side is a difference too. JSON files (the run manifest,
# ibpreport artifacts) are not compared. Run it from the repository root:
#
#	scripts/check_results.sh
#
# A change that moves a result regenerates results/ in the same commit, as
# results/README.md describes.
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/ibpsweep" ./cmd/ibpsweep
mkdir "$tmp/out"
"$tmp/ibpsweep" -run all -csv "$tmp/out" >"$tmp/out/sweep.log"
if ! diff -r -x README.md -x '*.json' results "$tmp/out"; then
	echo "results/ differs from a fresh ibpsweep -run all; regenerate it (results/README.md)" >&2
	exit 1
fi
echo "results/ reproduced byte for byte"
