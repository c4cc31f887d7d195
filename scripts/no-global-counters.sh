#!/usr/bin/env bash
# The aligner's kernels tally into a `KernelStats` their caller owns and
# hands back with the records, so a job's counters hold its own work
# only. Fail if a process-global counter comes back under
# crates/gesall-aligner/src: any atomic, or a `static` (or static in a
# `thread_local!`) holding a bare or `Cell`-wrapped integer.
set -uo pipefail
dir="${1:-crates/gesall-aligner/src}"
pattern='Atomic[A-Z]|static +(mut +)?[A-Z_0-9]+ *: *([A-Za-z_:]*Cell<)?[ui](8|16|32|64|size)\b'
if grep -rnE "$pattern" "$dir"; then
    echo "process-global counter under $dir: tally into the caller's KernelStats instead" >&2
    exit 1
fi
