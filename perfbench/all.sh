#!/usr/bin/env bash
# Runs every perfbench workload from the repository root: untraced and
# traced at the measured seed (42), then untraced at the held-out seed
# (7). Stops at the first run whose outputs fail verification.
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in campaign-cold gen-sweep; do
    for run in "42 0" "42 1" "7 0"; do
        read -r seed trace <<<"$run"
        echo "== $workload --seed $seed --trace $trace"
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 50 --trace "$trace"
    done
done
