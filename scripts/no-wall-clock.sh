#!/usr/bin/env bash
# Decisions keep a ledger instead of a clock. The DFS read path charges a
# replica read's service time (an injected slow node's delay), adds the
# retries' pauses to it, and holds the hedge budget and the deadline to
# that sum. The engine's wave scheduler charges an injected slowdown to
# its attempt and a retry's backoff to a counter, decides speculation
# from the wave's charges, and parks idle workers until the schedule
# changes. Three checks, each failing when its files name:
#   1. crates/gesall-dfs/src, and
#   2. the wave scheduler with its fault plan and slot lease
#      (crates/gesall-mapreduce/src/{wave,fault,lease}.rs):
#      a clock, a sleep, a spawned thread or a timed wait — `Instant`,
#      `SystemTime`, `thread::sleep`, `thread::spawn`, `recv_timeout` or
#      `wait_timeout`;
#   3. anywhere in crates/gesall-mapreduce/src, tests included: a sleep,
#      a timed wait or a `Duration`. Measurement timers (`Instant` for
#      the phase and wrapper counters) stay allowed there.
set -uo pipefail
full='\b(Instant|SystemTime|recv_timeout|wait_timeout)\b|thread::(sleep|spawn)\b'
timed='thread::sleep\b|\b(wait_timeout|recv_timeout|Duration)\b'
mr=crates/gesall-mapreduce/src
status=0
check() {
    local pattern=$1 hint=$2
    shift 2
    grep -rnE "$pattern" "$@"
    case $? in
        0) echo "$hint" >&2; status=1 ;;
        1) ;;
        *) exit 2 ;; # a path is gone: a check that reads nothing passes nothing
    esac
}
check "$full" "wall clock, sleep or thread under crates/gesall-dfs/src: charge the read's ledger instead" \
    crates/gesall-dfs/src
check "$full" "wall clock, sleep or thread in the wave scheduler: decide from charges instead" \
    "$mr/wave.rs" "$mr/fault.rs" "$mr/lease.rs"
check "$timed" "sleep, timed wait or Duration under $mr: charge the time, park without a deadline" \
    "$mr"
exit $status
