#!/usr/bin/env bash
# Compare two builds of the benchmark binary by alternating pairs, the
# procedure a performance claim is judged by: seed i (1..N) is run once by
# each binary, and which of the two goes first alternates from pair to
# pair, so a slow spell on a shared machine lands on both sides alike.
# Every run is untraced (--trace 0) and writes to its own --out directory.
#
#   scripts/bench-pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [N=10] [SECONDS=20]
#
# The binaries are builds of benchmark/ (benchmark/target/release/
# gesall-benchmark), copied aside so that rebuilding one side cannot
# change the other. Prints each pair's end-to-end metrics (BENCHMARK.json's
# `end_to_end` list), then per metric: both medians, their ratio
# (change / parent), the pairs the change won, and the parent's quartiles
# with their spread. A claimed gain wants at least 9 wins in 10 and a
# median difference larger than that spread. Exits 1 if a run fails or
# reports `correct: false`, 2 on a usage error.
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 5 ]; then
    sed -n '8p' "$0" | sed 's/^#   //' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 n=${4:-10} seconds=${5:-20}
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "not an executable: $bin" >&2; exit 2; }
done
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
echo "bench-pairs: $workload, seeds 1..$n, --seconds $seconds; runs under $out"

# One run: the binary's last line of standard output is its result.
run() {
    local side=$1 bin=$2 seed=$3 dir="$out/$1-$3"
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$dir" \
        > "$dir.log" 2>&1 || true
    tail -n 1 "$dir.log" > "$dir.result"
    echo "  seed $seed $side done"
}

for seed in $(seq "$n"); do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
done

python3 - "$root/BENCHMARK.json" "$out" "$n" <<'EOF'
import json
import statistics
import sys

spec, out, n = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
runs = {}
ok = True
for side in ("parent", "change"):
    for seed in range(1, n + 1):
        path = f"{out}/{side}-{seed}.result"
        try:
            r = json.loads(open(path).read())
        except (OSError, ValueError):
            print(f"{side} seed {seed}: no result line (see {out}/{side}-{seed}.log)")
            ok = False
            continue
        if not r.get("correct") or r.get("failed", 0):
            print(f"{side} seed {seed}: correct {r.get('correct')}, failed {r.get('failed')}")
            ok = False
        runs[side, seed] = {k: v["value"] for k, v in r["metrics"].items()}

def value(side, seed, name):
    return runs.get((side, seed), {}).get(name)

print("\npair  " + "  ".join(f"{name:>23}" for name, _ in metrics))
for seed in range(1, n + 1):
    cells = []
    for name, _ in metrics:
        p, c = value("parent", seed, name), value("change", seed, name)
        cells.append("—" if p is None or c is None else f"{p:.4g} → {c:.4g}")
    print(f"{seed:>4}  " + "  ".join(f"{cell:>23}" for cell in cells))

def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3

print(f"\n{'metric':<12} {'parent':>10} {'change':>10} {'ratio':>7} {'wins':>7}   parent Q1–Q3 (spread)")
for name, better in metrics:
    pairs = [(value("parent", s, name), value("change", s, name)) for s in range(1, n + 1)]
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not pairs:
        continue
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    mp, mc = statistics.median(ps), statistics.median(cs)
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
    q1, _, q3 = quartiles(ps)
    ratio = f"{mc / mp:.3f}" if mp else "—"
    print(f"{name:<12} {mp:>10.4g} {mc:>10.4g} {ratio:>7} {wins:>3}/{len(pairs):<3}   "
          f"{q1:.4g}–{q3:.4g} ({q3 - q1:.3g})")
sys.exit(0 if ok else 1)
EOF
