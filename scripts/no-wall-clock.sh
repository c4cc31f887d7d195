#!/usr/bin/env bash
# The DFS read path keeps a ledger instead of a clock: a replica read's
# service time is charged (an injected slow node's delay), retries'
# pauses are added to it, and the hedge budget and the deadline are held
# to that sum. Fail if crates/gesall-dfs/src names a clock, a sleep, a
# spawned thread or a timed wait again: `Instant`, `SystemTime`,
# `thread::sleep`, `thread::spawn`, `recv_timeout` or `wait_timeout`.
set -uo pipefail
dir="${1:-crates/gesall-dfs/src}"
pattern='\b(Instant|SystemTime|recv_timeout|wait_timeout)\b|thread::(sleep|spawn)\b'
grep -rnE "$pattern" "$dir"
case $? in
    0) echo "wall clock, sleep or thread under $dir: charge the read's ledger instead" >&2; exit 1 ;;
    1) exit 0 ;;
    *) exit 2 ;; # the directory is gone: a check that reads nothing passes nothing
esac
