# Development shortcuts. `just smoke` is the CI gate — run it before
# pushing; it must pass with zero warnings.

# Build, test, and lint exactly as CI does.
smoke:
    cargo build --release --offline --workspace
    cargo test -q --offline --workspace
    cargo clippy --offline --workspace --all-targets -- -D warnings

# Tiny traced end-to-end experiment: prints the per-phase breakdown,
# task Gantt, straggler stats, and shuffle matrix; appends a record to
# BENCH_smoke.json (plus smoke_trace.jsonl). Fails if any of the six
# phase timings is missing.
bench-smoke:
    cargo run --release --offline -p gesall-bench --bin experiments -- smoke .

# Kernel microbenches: the aligner's bit-parallel kernels (packed rank,
# banded SW) timed against their scalar references, plus the shuffle
# codec table; appends a record to BENCH_micro.json next to
# bench-smoke's.
bench-micro:
    cargo run --release --offline -p gesall-microbench -- .

# Fast inner-loop check.
check:
    cargo check --offline --workspace --all-targets

# Full test run with output on failure.
test:
    cargo test --offline --workspace

# Lint only.
lint:
    cargo clippy --offline --workspace --all-targets -- -D warnings

# Format (requires rustfmt).
fmt:
    cargo fmt --all

# Non-test Rust lines per crate and the public field count of every
# `*Config` struct — the numbers a simplification PR quotes before/after.
# A file counts up to its first `#[cfg(test)]`; tests/ and examples/
# directories are not counted.
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    printf '%-22s %8s\n' crate 'src LoC'
    total=0
    for d in crates/* vendor/* .; do
        [ -d "$d/src" ] || continue
        n=$(find "$d/src" -name '*.rs' -print0 \
            | xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}')
        printf '%-22s %8d\n' "$(basename "$(cd "$d" && pwd)")" "$n"
        total=$((total + n))
    done
    printf '%-22s %8d\n\n' total "$total"
    printf '%-22s %8s\n' 'config struct' 'pub fields'
    grep -rn --include='*.rs' -E '^pub struct [A-Za-z]*Config\b' crates src \
        | while IFS=: read -r file line decl; do
            name=$(echo "$decl" | sed -E 's/^pub struct ([A-Za-z]+).*/\1/')
            n=$(awk -v start="$line" 'NR>start && /^}/{exit} NR>start && /^    pub [a-z0-9_]+:/{n++} END{print n+0}' "$file")
            printf '%-22s %8d\n' "$name" "$n"
        done
