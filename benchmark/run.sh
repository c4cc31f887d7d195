#!/usr/bin/env bash
# The benchmark of record, by hand. From anywhere:
#
#   benchmark/run.sh run   [--seed S] [--runs N] [--seconds T] [--out DIR]   every workload, untraced
#   benchmark/run.sh trace [--seed S] [--seconds T] [--out DIR]             one traced run per workload
#   benchmark/run.sh compare A/results.json B/results.json                  apply the bounds
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1          one run, as the driver does it
#
# Results land in benchmark/out/ (git-ignored) unless --out says otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then
    set -- run
fi
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
