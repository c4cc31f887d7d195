#!/usr/bin/env bash
# Work runs on the thread whose event asked for it.
# - A streaming pipeline runs on its task attempt's thread: the harness
#   runs `bwa-mem | samtobam` one program after another, so round 1
#   spawns no feeder and no thread per program (each would get a malloc
#   arena of its own, which keeps its high-water mark). The threaded
#   reference harness, streaming/reference.rs, is test code and is not
#   read.
# - The job service's scheduling pass runs on the thread whose submit,
#   finish, cancel or permit drop changed the schedule: the service
#   keeps no dispatcher thread. A job's runner, in service/runner.rs, is
#   the crate's one spawned thread.
# Fail if the harness, the wrapped programs, round 1 or the job
# service's admission and scheduling files name `thread::spawn`,
# `thread::scope`, `thread::Builder` or `.spawn(` again.
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
