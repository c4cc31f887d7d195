#!/usr/bin/env bash
# The workspace builds on std plus exactly two external packages, rand
# and proptest (vendored shims, see vendor/README.md). Fail if the
# external packages anywhere in the workspace build (normal, dev and
# build edges) are any other set; extra cargo flags (e.g. --offline)
# are passed through to `cargo tree`.
set -euo pipefail
want=$'proptest\nrand'
got=$(cargo tree "$@" --workspace -e normal,dev,build --prefix none --format '{p}' \
    | grep -v -e '^gesall' -e '^$' | cut -d' ' -f1 | sort -u)
if [ "$got" != "$want" ]; then
    echo "external packages in the workspace build:" $got >&2
    echo "expected exactly: proptest rand (locks, threads and channels are std's)" >&2
    exit 1
fi
