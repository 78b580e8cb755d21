#!/usr/bin/env bash
# Prints the layer cost table of every workload, each from its own traced
# run. Run from the repository root:
#   bash fourbitbench/layers.sh [seed] [seconds]
set -euo pipefail
here=$(dirname "${BASH_SOURCE[0]}")
for w in fig6-mirage city-2k serve-replay; do
	bash "$here/run.sh" --workload "$w" --seed "${1:-1}" --seconds "${2:-20}" --trace 1 |
		sed -n '/^layer cost table/,/^end layer cost table/p'
done
