#!/usr/bin/env bash
# A streaming pipeline runs on its task attempt's thread: the harness
# runs `bwa-mem | samtobam` one program after another, so round 1 spawns
# no feeder and no thread per program (each would get a malloc arena of
# its own, which keeps its high-water mark). Fail if the harness, the
# wrapped programs or round 1 name `thread::spawn`, `thread::scope`,
# `thread::Builder` or `.spawn(` again. The threaded reference harness,
# streaming/reference.rs, is test code and is not read.
set -uo pipefail
cd "$(dirname "$0")/.."
files=(
    crates/gesall-mapreduce/src/streaming.rs
    crates/gesall-core/src/programs.rs
    crates/gesall-core/src/rounds/align.rs
)
for f in "${files[@]}"; do
    # A check that reads nothing passes nothing.
    [ -f "$f" ] || { echo "$f is gone: point the check at its successor" >&2; exit 2; }
done
if grep -nE 'thread::(spawn|scope|Builder)\b|\.spawn\(' "${files[@]}"; then
    echo "a spawned thread in the streaming path: run the programs on the caller's thread" >&2
    exit 1
fi
