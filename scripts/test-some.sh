#!/usr/bin/env bash
# `cargo test <filter>` exits 0 on "running 0 tests", so a moved or
# renamed test silently turns its gate off. Run `cargo test "$@"` and
# fail unless it passed and at least one test ran.
set -uo pipefail
out=$(cargo test "$@" 2>&1) && grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$out" && exit 0
printf '%s\n' "$out" "FAILED or matched no test: cargo test $*" >&2
exit 1
