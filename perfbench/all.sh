#!/usr/bin/env bash
# Runs every workload in turn, each in its own process, with the given
# arguments, e.g.
#
#   bash perfbench/all.sh --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Each workload prints its table
# and its JSON result line.
set -euo pipefail

for w in batch-exact batch-sharded online-churn; do
	echo "== $w"
	bash perfbench/run.sh --workload "$w" "$@"
done
