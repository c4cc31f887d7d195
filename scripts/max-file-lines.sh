#!/usr/bin/env bash
# One concern per file: fail if any .rs file under the src/ of a crate
# has more than 700 non-test lines, counted by scripts/loc.sh (every line
# except those of a `#[cfg(test)]` item or module). Every crate is held.
set -euo pipefail
cd "$(dirname "$0")/.."
limit=700
over=0
while IFS= read -r -d '' f; do
    n=$(scripts/loc.sh "$f")
    if [ "$n" -gt "$limit" ]; then
        echo "$f: $n non-test lines, more than $limit: split it at a seam" >&2
        over=1
    fi
done < <(find crates/*/src -name '*.rs' -print0)
exit "$over"
