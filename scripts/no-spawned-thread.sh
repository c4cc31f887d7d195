#!/usr/bin/env bash
# Work runs on the thread whose event asked for it.
# - A streaming pipeline runs on its task attempt's thread: the harness
#   steps `bwa-mem | samtobam` in turn, a batch at a time, so round 1
#   spawns no feeder and no thread per program (each would get a malloc
#   arena of its own, which keeps its high-water mark), and its pipes
#   are plain buffers, not channels.
# - The job service's scheduling pass runs on the thread whose submit,
#   finish, cancel or permit drop changed the schedule: the service
#   keeps no dispatcher thread. A job's runner, in service/runner.rs, is
#   the crate's one spawned thread.
# Fail if the harness, the wrapped programs, round 1 or the job
# service's admission and scheduling files name `thread::spawn`,
# `thread::scope`, `thread::Builder` or `.spawn(` again, or if the
# harness, the wrapped programs or round 1 name `mpsc` or `channel(`.
set -uo pipefail
cd "$(dirname "$0")/.."
files=(
    crates/gesall-mapreduce/src/streaming.rs
    crates/gesall-core/src/programs.rs
    crates/gesall-core/src/rounds/align.rs
    crates/gesall-jobsvc/src/service.rs
    crates/gesall-jobsvc/src/service/dispatch.rs
)
for f in "${files[@]}"; do
    # A check that reads nothing passes nothing.
    [ -f "$f" ] || { echo "$f is gone: point the check at its successor" >&2; exit 2; }
done
if grep -nE 'thread::(spawn|scope|Builder)\b|\.spawn\(' "${files[@]}"; then
    echo "a spawned thread in the streaming path or the job service's scheduler: run the work on the caller's thread" >&2
    exit 1
fi
if grep -nE '\bmpsc\b|channel\(' "${files[@]:0:3}"; then
    echo "a channel in the streaming path: a pipe is a buffer its reader steps over" >&2
    exit 1
fi
